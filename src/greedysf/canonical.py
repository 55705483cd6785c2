"""Canonicity: well-separated cost grid, low contraction, pre-announced edges."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .exact import floor_log2, pow2
from .greedy import RunTrace, equal_cost_classes
from .instances import Instance


@dataclass(frozen=True)
class CanonicalReport:
    costs_on_separated_grid: bool
    low_contraction: bool
    schedule_announces_costs: bool
    offenders: tuple[str, ...]

    @property
    def is_canonical(self) -> bool:
        return (
            self.costs_on_separated_grid
            and self.low_contraction
            and self.schedule_announces_costs
        )


def canonical_report(
    inst: Instance, trace: RunTrace, alpha: Fraction, delta: int
) -> CanonicalReport:
    """Audit the three canonicity clauses of an instance against its trace.

    (a) every traced cost sits on the grid m / 2**(j*(delta+10)) for a
        common anchor m, so distinct costs are separated by powers of
        2**(delta+10);
    (b) every pair's contraction is at most alpha;
    (c) schedule slot i holds exactly one edge, joining pair i's endpoints,
        of weight exactly the traced cost of pair i.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise InputError("alpha must be at least 1")
    if delta < 1:
        raise InputError("delta must be at least 1")
    offenders: list[str] = []

    grid_ok = True
    costs = [c for c, _ in equal_cost_classes(trace)]
    if any(c == 0 for c in trace.costs):
        grid_ok = False
        offenders.append("a pair of cost zero cannot sit on the cost grid")
    gap = delta + 10
    for c in costs[1:]:
        ratio = costs[0] / c
        exp = floor_log2(ratio)
        if pow2(exp) != ratio or exp % gap != 0:
            grid_ok = False
            offenders.append(
                f"cost {c} is not separated from {costs[0]} by a power of 2^{gap}"
            )

    low_ok = True
    for i, c in enumerate(trace.contraction):
        if c is None or c > alpha:
            low_ok = False
            shown = "inf" if c is None else str(c)
            offenders.append(f"pair {i} has contraction {shown} > alpha={alpha}")

    sched_ok = True
    for i, pair in enumerate(inst.pairs):
        edges = inst.schedule[i]
        if len(edges) != 1:
            sched_ok = False
            offenders.append(f"schedule[{i}] has {len(edges)} edges, expected 1")
            continue
        u, v, w = edges[0]
        if {u, v} != {pair.s, pair.t}:
            sched_ok = False
            offenders.append(f"schedule[{i}] edge does not join the pair endpoints")
        elif w != trace.costs[i]:
            sched_ok = False
            offenders.append(
                f"schedule[{i}] weight {w} differs from traced cost {trace.costs[i]}"
            )

    return CanonicalReport(
        costs_on_separated_grid=grid_ok,
        low_contraction=low_ok,
        schedule_announces_costs=sched_ok,
        offenders=tuple(offenders),
    )
