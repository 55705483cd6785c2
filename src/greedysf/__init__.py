"""Exact-arithmetic workbench for the greedy algorithm on online Steiner Forest."""

__version__ = "0.1.0"
