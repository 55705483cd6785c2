"""Instance transformations and the width/potential machinery.

Each transform returns the new instance plus a receipt: digests of both
sides, the per-pair correspondence, and the measured (not just claimed)
loss factors, so every transformation can be replayed and audited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .exact import floor_log2, format_fraction, pow2
from .graph import Distances, UnionFind, shortest_path
from .greedy import Rule, RunTrace, pairs_below_contraction, run_greedy
from .instances import Instance, make_instance
from .balanced import DualBall, ball_neighborhood, neighborhood_reach, trace_classes


@dataclass(frozen=True)
class TransformReceipt:
    kind: str
    source_digest: str
    target_digest: str
    pair_map: tuple  # transform-specific per-pair correspondence
    measured: dict


def receipt_to_obj(receipt: TransformReceipt) -> dict:
    return {
        "kind": receipt.kind,
        "source": receipt.source_digest,
        "target": receipt.target_digest,
        "pair_map": [list(x) for x in receipt.pair_map],
        "measured": receipt.measured,
    }


def serialize_receipt(receipt: TransformReceipt) -> str:
    return json.dumps(receipt_to_obj(receipt), sort_keys=True, separators=(",", ":"))


# -- canonicalization ---------------------------------------------------------

def to_canonical(
    inst: Instance, trace: RunTrace, alpha, delta: int
) -> tuple[Instance, TransformReceipt]:
    """Reduce an instance to a well-separated canonical one.

    Keeps the pairs of contraction below alpha, rounds each kept cost down
    to a power of two, groups the rounded exponents by residue modulo
    delta+10, keeps the group of maximum rounded cost (smallest residue on
    ties), and pre-announces every kept pair by one schedule edge of its
    rounded cost.  Rounding can double contraction, so consumers should use
    2*alpha downstream; the receipt records the measured cost ratio instead
    of asserting an unspecified constant.
    """
    alpha = Fraction(alpha)
    if delta < 1:
        raise InputError("delta must be at least 1")
    low = sorted(pairs_below_contraction(trace, alpha))
    if not low:
        raise InputError("nothing to canonicalize: no pair has contraction below alpha")
    gap = delta + 10
    exponents = {i: floor_log2(trace.costs[i]) for i in low}
    groups: dict[int, list[int]] = {}
    for i in low:
        groups.setdefault(exponents[i] % gap, []).append(i)
    group_cost = {
        res: sum((pow2(exponents[i]) for i in ids), Fraction(0))
        for res, ids in groups.items()
    }
    best_res = min(
        group_cost, key=lambda res: (-group_cost[res], res)
    )
    kept = sorted(groups[best_res])
    rounded = {i: pow2(exponents[i]) for i in kept}
    pairs = [(inst.pairs[i].s, inst.pairs[i].t) for i in kept]
    schedule = [[(inst.pairs[i].s, inst.pairs[i].t, rounded[i])] for i in kept]
    out = make_instance(inst.graph, pairs, schedule)

    replay = run_greedy(out, trace.rule)
    rounded_low_total = sum((pow2(exponents[i]) for i in low), Fraction(0))
    low_total = sum((trace.costs[i] for i in low), Fraction(0))
    measured = {
        "alpha_out": format_fraction(2 * alpha),
        "residue": best_res,
        "kept_rounded_cost": format_fraction(group_cost[best_res]),
        "rounded_low_contraction_cost": format_fraction(rounded_low_total),
        "low_contraction_cost": format_fraction(low_total),
        "replay_total": format_fraction(replay.total_cost),
        "replay_matches_rounded": all(
            replay.costs[new_i] == rounded[i] for new_i, i in enumerate(kept)
        ),
        "ratio_vs_low": format_fraction(
            replay.total_cost / low_total if low_total else Fraction(0)
        ),
    }
    receipt = TransformReceipt(
        kind="canonical",
        source_digest=inst.digest(),
        target_digest=out.digest(),
        pair_map=tuple(
            (i, new_i, format_fraction(trace.costs[i]), format_fraction(rounded[i]))
            for new_i, i in enumerate(kept)
        ),
        measured=measured,
    )
    return out, receipt


# -- pair subdivision for the third rule --------------------------------------

def subdivide_pairs_rule3(
    inst: Instance, trace: RunTrace
) -> tuple[Instance, TransformReceipt]:
    """Split every pair into its consecutive previously-arrived-terminal hops.

    Reads the hops off the trace: under the third rule a pair's shortcuts are
    its kept hops in path order.  A hop is dropped when zero-weight edges
    already join its ends at its arrival, which with nonnegative weights and
    an empty schedule is exactly when its contracted distance is 0; those
    edges are the base graph's zero-weight edges and the earlier shortcuts.
    Total cost is preserved exactly and every new pair has contraction 1.
    """
    if trace.rule is not Rule.RULE3:
        raise InputError("pair subdivision is defined for third-rule traces only")
    if trace.k != inst.k:
        raise InputError(f"trace has {trace.k} pairs, the instance {inst.k}")
    if any(inst.schedule[i] for i in range(inst.k)):
        raise InputError("pair subdivision expects an empty reveal schedule")
    zero = UnionFind()
    for u, v, w in inst.graph.edges:
        if w == 0:
            zero.union(u, v)
    new_pairs: list[tuple[int, int]] = []
    pair_map = []
    for i, hops in enumerate(trace.shortcuts_added):
        children = []
        for a, b in hops:
            if zero.find(a) != zero.find(b):
                children.append(len(new_pairs))
                new_pairs.append((a, b))
        pair_map.append((i, children))
        for a, b in hops:
            zero.union(a, b)
    out = make_instance(inst.graph, new_pairs)
    receipt = TransformReceipt(
        kind="subdivide_rule3",
        source_digest=inst.digest(),
        target_digest=out.digest(),
        pair_map=tuple((i, tuple(children)) for i, children in pair_map),
        measured={
            "k": inst.k,
            "k_new": len(new_pairs),
            "total": format_fraction(trace.total_cost),
        },
    )
    return out, receipt


# -- ball sub-instances --------------------------------------------------------

def extract_sub_instance(
    inst: Instance,
    trace: RunTrace,
    ball: DualBall,
    dangerous: set[int],
    K: int,
) -> tuple[Instance, TransformReceipt, dict[int, int]]:
    """Restrict the instance to the interior dangerous pairs of one ball.

    The graph is cut at the ball radius with a zero clique on the sphere;
    kept pairs are the deferred pairs in the ball's interior, in original
    relative order, revealed the same way.  Low contraction forces both
    endpoints of every kept pair inside the ball; anything else is a
    canonicity violation.
    """
    # one search, to the neighborhood's reach, answers the cut too
    dist = Distances(inst.graph, ball.center, neighborhood_reach(ball.radius, K))
    nb = ball_neighborhood(inst, ball, K, trace_classes(trace), dist)
    kept = [i for i in nb.interior if i in dangerous]
    sub_graph, remap = dist.zero_border(ball.radius)
    pairs = []
    schedule = []
    for i in kept:
        pair = inst.pairs[i]
        if pair.s not in remap or pair.t not in remap:
            raise InputError(
                f"pair {i} has an endpoint outside the ball; the instance "
                "cannot be canonical with this deferral"
            )
        pairs.append((remap[pair.s], remap[pair.t]))
        row = []
        for u, v, w in inst.schedule[i]:
            if u not in remap or v not in remap:
                raise InputError(
                    f"schedule edge of pair {i} leaves the ball; canonicity violated"
                )
            row.append((remap[u], remap[v], w))
        schedule.append(row)
    out = make_instance(sub_graph, pairs, schedule)
    receipt = TransformReceipt(
        kind="ball_sub_instance",
        source_digest=inst.digest(),
        target_digest=out.digest(),
        pair_map=tuple(
            (i, new_i, format_fraction(trace.costs[i])) for new_i, i in enumerate(kept)
        ),
        measured={
            "center": ball.center,
            "radius": format_fraction(ball.radius),
            "kept": len(kept),
        },
    )
    return out, receipt, remap


# -- width and potential -------------------------------------------------------

def _component_width(vertices: set[int], inst: Instance) -> Fraction:
    """Largest mate distance among the pairs with a terminal in `vertices`;
    0 if there is none."""
    best = Fraction(0)
    for i, (p, d) in enumerate(zip(inst.pairs, inst.pair_distances)):
        if p.s in vertices or p.t in vertices:
            if d is None:
                raise InputError(f"pair {i} is disconnected in the graph")
            if d > best:
                best = d
    return best


def forest_potential(forest_edges, inst: Instance) -> Fraction:
    """Forest weight plus the total width of its components."""
    return _forest_potential(forest_edges, inst)[0]


def _forest_potential(forest_edges, inst: Instance) -> tuple[Fraction, UnionFind]:
    """`forest_potential` with the union-find of the forest's components."""
    g = inst.graph
    uf = UnionFind()
    weight = Fraction(0)
    for ei in set(forest_edges):
        u, v, w = g.edges[ei]
        if not uf.union(u, v):
            raise InputError("edge set contains a cycle; not a forest")
        weight += w
    width = sum(
        (_component_width(comp, inst) for comp in uf.groups()), Fraction(0)
    )
    return weight + width, uf


def augment_subdivided_solution(
    opt_edge_indices,
    inst: Instance,
    trace: RunTrace,
    subdivided: Instance,
    receipt: TransformReceipt,
) -> tuple[set[int], dict]:
    """Grow an optimum of the parent instance into a solution of the split one.

    Requires the parent's per-pair cost sequence or original-distance
    sequence to be non-increasing.  Replays the arrivals and takes each
    parent's sub-pairs one at a time: a sub-pair the current forest does not
    yet join gets the edges of a shortest path between its ends, each added
    only if it joins two components, so the edge set stays a forest.  The
    log records the potential after each step and the audit asserts it never
    increases, which pins the final weight at twice the optimum.
    """
    if receipt.kind != "subdivide_rule3":
        raise InputError("expected the receipt of a pair subdivision")
    dists = inst.pair_distances
    if any(d is None for d in dists):
        raise InputError("some pair is disconnected in the graph")
    costs = trace.costs
    non_increasing_costs = all(a >= b for a, b in zip(costs, costs[1:]))
    non_increasing_dists = all(a >= b for a, b in zip(dists, dists[1:]))
    if not (non_increasing_costs or non_increasing_dists):
        first_bad = next(
            i for i in range(len(costs) - 1) if costs[i] < costs[i + 1]
        )
        raise InputError(
            f"neither the cost nor the distance sequence is non-increasing "
            f"(first cost inversion at pair {first_bad})"
        )

    g = inst.graph
    adj = g.metric.adj

    def connecting_edges(a: int, b: int) -> list[int]:
        # a deterministic original shortest path, in path order; its weight
        # equals what the split run paid for this sub-pair because its
        # contraction is 1.  Each step takes the lightest, then lowest-index,
        # edge between its ends.
        path = shortest_path(g, a, b).path
        if path is None:
            raise InputError(f"sub-pair ({a},{b}) is disconnected in the graph")
        return [
            min((wi, ei) for v, wi, ei in adj[x] if v == y)[1]
            for x, y in zip(path, path[1:])
        ]

    forest: set[int] = set(opt_edge_indices)
    phi, uf = _forest_potential(forest, inst)
    log = {"steps": [], "initial_potential": format_fraction(phi)}
    children_of = {i: list(ch) for i, ch in receipt.pair_map}

    for i in range(inst.k):
        # `uf` holds the components of the forest as it stands
        missing = []
        for c in children_of[i]:
            s, t = subdivided.pairs[c].s, subdivided.pairs[c].t
            if uf.find(s) == uf.find(t):
                continue
            missing.append(c)
            for ei in connecting_edges(s, t):
                u, v, _ = g.edges[ei]
                if uf.union(u, v):
                    forest.add(ei)
        # with nothing missing the forest, hence its potential, is unchanged
        new_phi, uf = _forest_potential(forest, inst) if missing else (phi, uf)
        log["steps"].append(
            {
                "pair": i,
                "added_for": missing,
                "potential": format_fraction(new_phi),
                "non_increasing": new_phi <= phi,
            }
        )
        phi = new_phi
    log["final_potential"] = format_fraction(phi)
    log["final_weight"] = format_fraction(
        sum((g.edges[ei][2] for ei in forest), Fraction(0))
    )
    return forest, log
