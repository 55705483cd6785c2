"""Per-cost-class dual-ball placement and its audits.

For a set of equal-cost pairs, the constructive argument walks the pairs in
arrival order and tries to place an open ball of a fixed radius around one
endpoint (s first, then t).  When both candidates hit already-placed balls,
the pair is skipped and one auxiliary edge joins the two blocking centers.
The auxiliary graph's girth, an edge-density bound, and a counting identity
together certify that at most a 1/5 fraction of the pairs was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, InternalConsistencyError
from .exact import class_radius, format_fraction, lg_plus
from .graph import (
    Distances, WeightedGraph, first_overlap, girth, open_ball, overlapping_pairs
)
from .greedy import RunTrace
from .instances import Instance


@dataclass(frozen=True)
class ClassDualCollection:
    class_cost: Fraction
    radius: Fraction
    balls: tuple[tuple[int, int], ...]  # (center vertex, owning pair index)
    skipped: tuple[int, ...]  # pair indices that got no ball

    @property
    def subset_size(self) -> int:
        return len(self.balls) + len(self.skipped)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Unweighted blocking graph: vertices are ball indices (their centers)."""

    centers: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # pairs of ball indices

    def skeleton(self) -> WeightedGraph:
        return WeightedGraph(
            len(self.centers), [(u, v, Fraction(1)) for u, v in self.edges]
        )


def collection_to_obj(coll: ClassDualCollection, aux: AuxiliaryGraph) -> dict:
    return {
        "class_cost": format_fraction(coll.class_cost),
        "radius": format_fraction(coll.radius),
        "balls": [{"center": c, "pair": p} for c, p in coll.balls],
        "aux_edges": [[i, j] for i, j in aux.edges],
    }


def build_class_duals(
    trace: RunTrace,
    inst: Instance,
    class_pairs: list[int],
    subset: Optional[list[int]] = None,
) -> tuple[ClassDualCollection, AuxiliaryGraph]:
    """Place disjoint dual balls of radius r for one equal-cost class.

    `class_pairs` must share one positive traced cost c; `subset` (default:
    the whole class) is walked in arrival order.  r is the maximum allowed
    radius c / (8 * lg_plus(|class_pairs|)).
    """
    if not class_pairs:
        raise InputError("class_pairs must be nonempty")
    costs = {trace.costs[i] for i in class_pairs}
    if len(costs) != 1:
        raise InputError(f"class pairs do not share one cost: {sorted(costs)}")
    cost = costs.pop()
    if cost <= 0:
        raise InputError("class cost must be positive")
    if subset is None:
        subset = list(class_pairs)
    if not set(subset) <= set(class_pairs):
        raise InputError("subset must be contained in class_pairs")
    r = class_radius(cost, len(class_pairs))

    g = inst.graph
    ball_sets: list[frozenset[int]] = []
    balls: list[tuple[int, int]] = []
    skipped: list[int] = []
    aux_edges: list[tuple[int, int]] = []

    for i in sorted(subset):
        pair = inst.pairs[i]
        blockers = []
        placed = False
        for endpoint in (pair.s, pair.t):
            candidate = open_ball(g, endpoint, r)
            blocker = first_overlap(ball_sets, candidate)
            if blocker is None:
                ball_sets.append(candidate)
                balls.append((endpoint, i))
                placed = True
                break
            blockers.append(blocker)
        if not placed:
            bs, bt = blockers
            if bs == bt:
                raise InternalConsistencyError(
                    f"pair {i}: one ball blocks both endpoints, which a greedy "
                    "trace cannot produce (cost would beat the traced value)"
                )
            aux_edges.append((bs, bt))
            skipped.append(i)

    coll = ClassDualCollection(
        class_cost=cost, radius=r, balls=tuple(balls), skipped=tuple(skipped)
    )
    aux = AuxiliaryGraph(
        centers=tuple(c for c, _ in balls), edges=tuple(aux_edges)
    )
    return coll, aux


@dataclass(frozen=True)
class ClassDualReport:
    skipped_fraction_ok: bool  # |P'| <= 5 |balls|
    one_ball_per_pair: bool
    centers_at_endpoints: bool
    balls_disjoint: bool
    radii_below_mate_distance: bool
    radius_within_class_bound: bool  # r <= c / (8 lg+ |class|)
    radius_within_subset_bound: bool  # r <= c / (8 lg+ |P'|)
    counting_identity: bool  # |P'| == |balls| + |aux edges|
    offenders: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.skipped_fraction_ok
            and self.one_ball_per_pair
            and self.centers_at_endpoints
            and self.balls_disjoint
            and self.radii_below_mate_distance
            and self.radius_within_class_bound
            and self.radius_within_subset_bound
            and self.counting_identity
        )


def verify_class_duals(
    coll: ClassDualCollection,
    aux: AuxiliaryGraph,
    trace: RunTrace,
    inst: Instance,
    class_size: int,
) -> ClassDualReport:
    """Check every clause of the per-class collection, naming offenders.

    The radius bound is reported both against the full class size and
    against the subset size |P'|; the two readings differ only in which set
    the log is taken over, so both verdicts are surfaced.
    """
    g = inst.graph
    offenders: list[str] = []
    p_count = coll.subset_size

    skipped_ok = p_count <= 5 * len(coll.balls)
    if not skipped_ok:
        offenders.append(f"|P'|={p_count} exceeds 5*|balls|={5 * len(coll.balls)}")

    owners = [p for _, p in coll.balls]
    one_each = len(owners) == len(set(owners))
    if not one_each:
        dup = sorted({p for p in owners if owners.count(p) > 1})
        offenders.append(f"pairs with more than one ball: {dup}")

    centers_ok = True
    for center, p in coll.balls:
        pair = inst.pairs[p]
        if center not in (pair.s, pair.t):
            centers_ok = False
            offenders.append(f"ball at {center} is not an endpoint of pair {p}")

    dists = [Distances(g, c, coll.radius) for c, _ in coll.balls]
    overlaps = overlapping_pairs([d.ball(coll.radius) for d in dists])
    for i, j in overlaps:
        offenders.append(f"balls {i} and {j} overlap")
    disjoint = not overlaps

    mates_ok = True
    for idx, (center, p) in enumerate(coll.balls):
        pair = inst.pairs[p]
        mate = pair.t if center == pair.s else pair.s
        if dists[idx].side(mate, coll.radius) <= 0:
            mates_ok = False
            offenders.append(f"ball {idx} radius reaches its mate distance")

    rad_class_ok = coll.radius <= class_radius(coll.class_cost, class_size)
    if not rad_class_ok:
        offenders.append("radius exceeds the class-size bound")
    rad_subset_ok = p_count == 0 or coll.radius <= class_radius(coll.class_cost, p_count)
    if not rad_subset_ok:
        offenders.append("radius exceeds the subset-size bound")

    counting = p_count == len(coll.balls) + len(aux.edges)
    if not counting:
        offenders.append(
            f"|P'|={p_count} != |balls|={len(coll.balls)} + |aux|={len(aux.edges)}"
        )

    return ClassDualReport(
        skipped_fraction_ok=skipped_ok,
        one_ball_per_pair=one_each,
        centers_at_endpoints=centers_ok,
        balls_disjoint=disjoint,
        radii_below_mate_distance=mates_ok,
        radius_within_class_bound=rad_class_ok,
        radius_within_subset_bound=rad_subset_ok,
        counting_identity=counting,
        offenders=tuple(offenders),
    )


@dataclass(frozen=True)
class GirthReport:
    girth: Optional[int]
    threshold: int
    holds: bool


def girth_audit(aux: AuxiliaryGraph, p_count: int) -> GirthReport:
    """Check girth(aux) >= 2 * lg_plus(p_count); acyclic graphs pass."""
    value = girth(aux.skeleton()) if aux.centers else None
    threshold = 2 * lg_plus(max(1, p_count))
    return GirthReport(
        girth=value, threshold=threshold, holds=value is None or value >= threshold
    )


@dataclass(frozen=True)
class MooreReport:
    consistent: bool
    violated_p: Optional[int]
    checks: tuple[tuple[int, bool, Optional[int]], ...]  # (p, premise fired, girth cap)


def moore_bound_audit(g: WeightedGraph) -> MooreReport:
    """Edge-density girth cap: m >= 2*n^(1+1/p) forces girth <= 2p.

    The premise is evaluated in exact integer arithmetic as
    m^p >= 2^p * n^(p+1); the report lists every p that fired and the first
    violated one, if any.  The girth is computed once, and only if some
    premise fired.
    """
    n, m = g.n, len(g.edges)
    checks = []
    if n >= 1:
        p_limit = max(1, (n - 1).bit_length()) if n > 1 else 1
        for p in range(1, p_limit + 1):
            fired = m**p >= 2**p * n ** (p + 1)
            checks.append((p, fired, 2 * p if fired else None))
    fired_ps = [p for p, fired, _ in checks if fired]
    violated = None
    if fired_ps:
        value = girth(g)
        violated = next((p for p in fired_ps if value is None or value > 2 * p), None)
    return MooreReport(
        consistent=violated is None, violated_p=violated, checks=tuple(checks)
    )
