"""The online greedy run under the three metric-contraction rules.

Each arriving pair is connected by the exact shortest path in the current
metric (base graph + revealed schedule edges + accumulated zero-weight
shortcuts); the chosen rule then decides which zero-weight shortcuts to add.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, ParseError, RunError
from .exact import format_fraction, parse_fraction, parse_int, parse_list, unwritten_field
from .instances import Instance


class Rule(enum.Enum):
    RULE1 = 1  # zero edge per consecutive path pair
    RULE2 = 2  # single zero edge between the pair's endpoints
    RULE3 = 3  # zero edges between consecutive previously-arrived terminals

    @classmethod
    def parse(cls, text: str) -> "Rule":
        try:
            return {"1": cls.RULE1, "2": cls.RULE2, "3": cls.RULE3,
                    "rule1": cls.RULE1, "rule2": cls.RULE2, "rule3": cls.RULE3}[
                str(text).lower()
            ]
        except KeyError:
            raise InputError(f"unknown contraction rule {text!r}") from None


@dataclass
class RunTrace:
    """Everything one greedy run produced, pair by pair."""

    rule: Rule
    paths: list[tuple[int, ...]]
    costs: list[Fraction]
    shortcuts_added: list[list[tuple[int, int]]]
    contraction: list[Optional[Fraction]]  # None encodes infinity

    @property
    def k(self) -> int:
        return len(self.costs)

    @property
    def total_cost(self) -> Fraction:
        return sum(self.costs, Fraction(0))


def apply_contraction_rule(
    rule: Rule, path: tuple[int, ...], prev_terminals: set[int]
) -> list[tuple[int, int]]:
    """Zero-weight shortcut edges the rule adds after buying `path`.

    For RULE3, `prev_terminals` must contain the terminals of earlier pairs
    plus the current pair's own endpoints, so the kept sub-sequence starts
    and ends at the endpoints.
    """
    if rule is Rule.RULE1:
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    if rule is Rule.RULE2:
        return [(path[0], path[-1])]
    kept = [v for v in path if v in prev_terminals]
    return [(kept[i], kept[i + 1]) for i in range(len(kept) - 1)]


def run_greedy(inst: Instance, rule: Rule) -> RunTrace:
    """Run the greedy algorithm over the arrival sequence under one rule."""
    if len(inst.schedule) != len(inst.pairs):
        raise InputError("schedule length must match pair count")
    metric = inst.graph.metric.extended(w for step in inst.schedule for _, _, w in step)
    terminals: set[int] = set()  # of the pairs so far, the arriving one included
    paths, costs, added = [], [], []
    for i, pair in enumerate(inst.pairs):
        for u, v, w in inst.schedule[i]:
            metric.add_edge(u, v, w)
        best = metric.shortest(pair.s, pair.t)
        if not best.reachable:
            raise RunError(f"pair {i} ({pair.s},{pair.t}) unreachable in current metric")
        cost, path = best.distance, best.path
        terminals.update((pair.s, pair.t))
        shortcuts = apply_contraction_rule(rule, path, terminals)
        for u, v in shortcuts:
            metric.add_edge(u, v, Fraction(0))
        paths.append(path)
        costs.append(cost)
        added.append(shortcuts)
    contraction = _contractions(inst, costs)
    return RunTrace(
        rule=rule,
        paths=paths,
        costs=costs,
        shortcuts_added=added,
        contraction=contraction,
    )


def _contractions(inst: Instance, costs) -> list[Optional[Fraction]]:
    out = []
    for pair, cost, d in zip(inst.pairs, costs, inst.pair_distances):
        if cost == 0:
            out.append(None)
        else:
            if d is None:
                raise RunError(
                    f"pair ({pair.s},{pair.t}) unreachable in the original graph"
                )
            out.append(d / cost)
    return out


def pairs_below_contraction(trace: RunTrace, alpha: Fraction) -> set[int]:
    """Indices of pairs with contraction strictly below alpha."""
    alpha = Fraction(alpha)
    if alpha < 1:
        raise InputError("alpha must be at least 1")
    return {
        i
        for i, c in enumerate(trace.contraction)
        if c is not None and c < alpha
    }


def equal_cost_classes(trace: RunTrace) -> list[tuple[Fraction, list[int]]]:
    """Group pair indices by exact traced cost, most expensive group first.

    Zero-cost pairs are dropped.  This is the one cost-class grouping: the
    per-class dual certificates and the balanced dual's classes both use it.
    """
    groups: dict[Fraction, list[int]] = {}
    for i, c in enumerate(trace.costs):
        if c > 0:
            groups.setdefault(c, []).append(i)
    return [(c, groups[c]) for c in sorted(groups, reverse=True)]


def compare_rules(inst: Instance) -> dict[str, Fraction]:
    """Total greedy cost under each rule, for empirical dominance logging."""
    return {
        rule.name.lower(): run_greedy(inst, rule).total_cost for rule in Rule
    }


# -- trace serialization -----------------------------------------------------

def trace_to_obj(trace: RunTrace) -> dict:
    return {
        "rule": f"rule{trace.rule.value}",
        "pairs": [
            {
                "path": list(trace.paths[i]),
                "cost": format_fraction(trace.costs[i]),
                "shortcuts": [[u, v] for u, v in trace.shortcuts_added[i]],
                "contraction": (
                    "inf"
                    if trace.contraction[i] is None
                    else format_fraction(trace.contraction[i])
                ),
            }
            for i in range(trace.k)
        ],
        "total": format_fraction(trace.total_cost),
    }


def serialize_trace(trace: RunTrace) -> str:
    return json.dumps(trace_to_obj(trace), sort_keys=True, separators=(",", ":"))


def parse_trace(text: str) -> RunTrace:
    """The run a trace file states.  Only a file that `trace_to_obj` writes
    back unchanged, key for key, states one: the writer is its definition."""
    try:
        obj = json.loads(text)
        rule = Rule.parse(obj["rule"])
        paths, costs, added, contraction = [], [], [], []
        for i, row in enumerate(parse_list(obj["pairs"], "trace field 'pairs'")):
            vertex = f"a vertex id of trace pair {i}"
            path = parse_list(row["path"], f"the path of trace pair {i}")
            paths.append(tuple(parse_int(v, vertex) for v in path))
            costs.append(parse_fraction(row["cost"]))
            shortcuts = []
            for edge in parse_list(row["shortcuts"], f"the shortcuts of trace pair {i}"):
                u, v = parse_list(edge, f"a shortcut of trace pair {i}")
                shortcuts.append((parse_int(u, vertex), parse_int(v, vertex)))
            added.append(shortcuts)
            c = row["contraction"]
            contraction.append(None if c == "inf" else parse_fraction(c))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed trace: {exc}") from exc
    trace = RunTrace(
        rule=rule,
        paths=paths,
        costs=costs,
        shortcuts_added=added,
        contraction=contraction,
    )
    key = unwritten_field(trace_to_obj(trace), obj, "pairs")
    if key is not None:
        raise ParseError(f"trace field {key!r} is not the writer's form of its inputs")
    return trace
