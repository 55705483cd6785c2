"""Span recording for traced benchmark passes.

A `Tracer` wraps every public module-level function of the greedysf layer
modules and rebinds each name wherever a layer module refers to it, so calls
from the benchmark, from the CLI and from one layer into another each record
a span.  Nothing under `src/` changes: the wrappers are installed for a
traced pass and removed after it.
"""

from __future__ import annotations

import functools
import time
import types

LAYERS = (
    "instances",
    "graph",
    "greedy",
    "opt",
    "dualfit",
    "canonical",
    "balanced",
    "transforms",
    "cli",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def summarize(spans, groups: dict[str, tuple[str, ...]]) -> dict[str, dict]:
    """Per-layer times of one traced pass, as {metric: {request id: seconds}}.

    Each entry of `groups` sums the durations of the named spans that have no
    ancestor in the same group, so a call nested in another call of its own
    group counts once.  `<layer>.self_s` is the time spans of that layer did
    not spend in child spans.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += durations[i]
    out: dict[str, dict] = {f"{layer}.self_s": {} for layer in LAYERS}
    out.update((metric, {}) for metric in groups)

    def add(metric, request, seconds):
        out[metric][request] = out[metric].get(request, 0.0) + seconds

    for i, span in enumerate(spans):
        add(span[0].split(".", 1)[0] + ".self_s", span[4], durations[i] - child_time[i])
    for metric, names in groups.items():
        for i, span in enumerate(spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                add(metric, span[4], durations[i])
    return out
