"""Exact offline optima at desk scale.

Steiner trees come from the classic subset dynamic program over terminal
masks (with a closed-form fast path on acyclic graphs, where the minimal
connecting subtree is unique).  Steiner forests come from a depth-first
search over the set partitions of the pair list that sums per-block trees,
which is correct because every optimal forest component serves some subset
of the pairs; the search keeps its first strict minimum, so its order fixes
the edges chosen among tied optima.  It cuts against that incumbent: a
block's tree never gets lighter as pairs join it, so a partial partition
whose blocks already weigh as much as the incumbent holds no better leaf and
is left.  Fixed caps, PAIR_CAP pairs per forest and (unless a caller passes
its own) DEFAULT_TERMINAL_CAP terminals per tree, keep the worst case of
Bell-number leaves times 3^(t-1) DP work deliberate rather than accidental.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappush, heappop
from typing import Optional

from .errors import CapExceededError, InputError, InternalConsistencyError
from .exact import format_fraction
from .graph import Distances, SpanningForest, WeightedGraph, overlapping_pairs
from .graph import spanning_forest
from .instances import Instance, MateMap

PAIR_CAP = 8
DEFAULT_TERMINAL_CAP = 12


@dataclass(frozen=True)
class SteinerSolution:
    weight: Fraction
    edge_indices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def serialize_solution(sol: SteinerSolution) -> str:
    obj = {"weight": format_fraction(sol.weight), "edges": [[u, v] for u, v in sol.edges]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _solution(g: WeightedGraph, edge_indices) -> SteinerSolution:
    idx = tuple(sorted(set(edge_indices)))
    weight = sum((g.edges[i][2] for i in idx), Fraction(0))
    return SteinerSolution(
        weight=weight,
        edge_indices=idx,
        edges=tuple((g.edges[i][0], g.edges[i][1]) for i in idx),
    )


# -- Steiner trees over terminal masks ----------------------------------------
#
# Both solvers answer, for a mask over their terminal tuple, weight(mask): the
# optimum tree weight as an integer over g.metric.scale, or None if the masked
# terminals are disconnected; and edges(mask): that tree's edge indices.

class _ForestIndex:
    """On an acyclic graph the minimal connecting subtree is unique: the union
    of the paths from one terminal to every other."""

    def __init__(self, g: WeightedGraph, forest: SpanningForest, terminals: tuple[int, ...]):
        self.forest, self.terminals = forest, terminals
        scale = g.metric.scale
        self.edge_weight = [w.numerator * scale // w.denominator for _, _, w in g.edges]
        self._memo: dict[int, Optional[tuple[int, set[int]]]] = {}

    def _path_edges(self, a: int, b: int) -> set[int]:
        f = self.forest
        edges: set[int] = set()
        while a != b:
            if f.depth[a] >= f.depth[b]:
                edges.add(f.parent_edge[a])
                a = f.parent[a]
            else:
                edges.add(f.parent_edge[b])
                b = f.parent[b]
        return edges

    def _tree(self, mask) -> Optional[tuple[int, set[int]]]:
        if mask not in self._memo:
            first, *rest = [t for i, t in enumerate(self.terminals) if mask >> i & 1]
            if any(self.forest.root[t] != self.forest.root[first] for t in rest):
                self._memo[mask] = None
            else:
                edges = set().union(*(self._path_edges(first, t) for t in rest))
                self._memo[mask] = (sum(self.edge_weight[i] for i in edges), edges)
        return self._memo[mask]

    def weight(self, mask) -> Optional[int]:
        tree = self._tree(mask)
        return None if tree is None else tree[0]

    def edges(self, mask) -> set[int]:
        return self._tree(mask)[1]


class SteinerTable:
    """Subset DP: dp[mask][v] = min weight of a tree spanning {terminals in mask, v}.

    The DP is rooted at the first terminal (Dreyfus & Wagner's root q): it
    builds only the 2^(t-1) masks without bit 0, and answers a mask from the
    entry of its lowest terminal in the mask of the others."""

    def __init__(self, g: WeightedGraph, terminals: tuple[int, ...]):
        self.g = g
        self.terminals = terminals
        # dp[0]: every vertex alone, the tree a single-terminal mask asks for
        self.dp: dict[int, list] = {0: [0] * g.n}
        self.par: dict[int, list] = {0: [("base",)] * g.n}
        # weight/edges root each mask at its lowest terminal: no read mask holds bit 0
        for i, term in enumerate(terminals[1:], 1):
            seed = [None] * g.n
            par = [None] * g.n
            seed[term] = 0
            par[term] = ("base",)
            self._seed_and_walk(1 << i, seed, par)
        for mask in range(2, 1 << len(terminals), 2):
            if mask & (mask - 1):
                self._build(mask)

    def _build(self, mask):
        n = self.g.n
        seed = [None] * n
        par = [None] * n
        low = mask & (-mask)
        rest = mask ^ low
        # splits (part1, part2) with low in part1, part2 nonempty; the final
        # sub == 0 step is the ({low}, rest) split
        sub = (rest - 1) & rest
        while True:
            part1 = sub | low
            part2 = mask ^ part1
            a, b = self.dp[part1], self.dp[part2]
            for v in range(n):
                av, bv = a[v], b[v]
                if av is None or bv is None:
                    continue
                cand = av + bv
                if seed[v] is None or cand < seed[v]:
                    seed[v] = cand
                    par[v] = ("merge", part1, part2)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        self._seed_and_walk(mask, seed, par)

    def _seed_and_walk(self, mask, seed, par):
        n = self.g.n
        adj = self.g.metric.adj
        heap = [(d, v) for v, d in enumerate(seed) if d is not None]
        heapify(heap)
        done = [False] * n
        while heap:
            d, u = heappop(heap)
            if done[u] or d > seed[u]:
                continue
            done[u] = True
            for v, wi, ei in adj[u]:
                if done[v]:
                    continue
                nd = d + wi
                if seed[v] is None or nd < seed[v]:
                    seed[v] = nd
                    par[v] = ("edge", u, ei)
                    heappush(heap, (nd, v))
        self.dp[mask] = seed
        self.par[mask] = par

    def _rooted(self, mask) -> tuple[int, int]:
        """(mask without its lowest terminal, that terminal)."""
        low = mask & (-mask)
        return mask ^ low, self.terminals[low.bit_length() - 1]

    def weight(self, mask) -> Optional[int]:
        rest, root = self._rooted(mask)
        return self.dp[rest][root]

    def edges(self, mask) -> set[int]:
        out: set[int] = set()
        stack = [self._rooted(mask)]
        while stack:
            m, v = stack.pop()
            tag = self.par[m][v]
            if tag[0] == "base":
                continue
            if tag[0] == "edge":
                _, u, ei = tag
                out.add(ei)
                stack.append((m, u))
            else:
                _, m1, m2 = tag
                stack.append((m1, v))
                stack.append((m2, v))
        return out


def _tree_oracle(g: WeightedGraph, terminals: tuple[int, ...]):
    """The Steiner-tree solver over masks of `terminals`: the closed form on
    acyclic graphs, the subset DP otherwise."""
    forest = spanning_forest(g)
    if forest.is_forest:
        return _ForestIndex(g, forest, terminals)
    return SteinerTable(g, terminals)


def steiner_tree_exact(
    g: WeightedGraph, terminals, cap_terminals: Optional[int] = None
) -> SteinerSolution:
    """Exact minimum-weight connected subgraph spanning the terminal set."""
    terminals = tuple(sorted(set(terminals)))
    for t in terminals:
        g.check_vertex(t)
    if not terminals:
        raise InputError("need at least one terminal")
    cap = DEFAULT_TERMINAL_CAP if cap_terminals is None else cap_terminals
    if len(terminals) > cap:
        raise CapExceededError(
            f"{len(terminals)} terminals exceed the cap of {cap}"
        )
    oracle = _tree_oracle(g, terminals)
    full = (1 << len(terminals)) - 1
    if oracle.weight(full) is None:
        raise InputError("terminals are disconnected")
    return _solution(g, oracle.edges(full))


def exact_optima(inst: Instance) -> tuple[SteinerSolution, Optional[Fraction]]:
    """Exact minimum-weight forest connecting every pair, minimized over the
    partitions of the pair list, and the weight of its one-block partition: the
    optimum single tree (None if the terminals are disconnected or absent).
    Schedule edges are never used.
    """
    if inst.k > PAIR_CAP:
        raise CapExceededError(f"{inst.k} pairs exceed the cap of {PAIR_CAP}")
    g = inst.graph
    terminals = tuple(sorted(inst.terminals()))
    if not terminals:
        return _solution(g, ()), None
    term_pos = {t: i for i, t in enumerate(terminals)}
    pair_mask = [
        (1 << term_pos[p.s]) | (1 << term_pos[p.t]) for p in inst.pairs
    ]
    oracle = _tree_oracle(g, terminals)
    best = None
    best_blocks = None
    blocks: list[int] = []  # the terminal mask of each block formed so far
    weights: list[int] = []  # and its tree weight

    def search(i, total):
        nonlocal best, best_blocks
        # a block's tree only grows as pairs join it, so `total` bounds every
        # leaf below: a subtree that cannot beat the incumbent is cut
        if best is not None and total >= best:
            return
        if i == inst.k:
            best, best_blocks = total, list(blocks)
            return
        # pair i joins each block in creation order, then opens its own: the
        # first strict minimum in this order fixes the edges among tied optima
        for j, (m, old) in enumerate(zip(blocks, weights)):
            w = oracle.weight(m | pair_mask[i])
            if w is not None:  # else the block, and all it grows into, is disconnected
                blocks[j], weights[j] = m | pair_mask[i], w
                search(i + 1, total - old + w)
                blocks[j], weights[j] = m, old
        w = oracle.weight(pair_mask[i])
        if w is not None:
            blocks.append(pair_mask[i])
            weights.append(w)
            search(i + 1, total + w)
            blocks.pop()
            weights.pop()

    search(0, 0)
    if best is None:
        raise InputError("some pair is disconnected in the graph")
    edge_idx = set().union(*(oracle.edges(m) for m in best_blocks))
    sol = _solution(g, edge_idx)
    if sol.weight != Fraction(best, g.metric.scale):
        raise InternalConsistencyError("partition weight mismatch")
    tree = oracle.weight((1 << len(terminals)) - 1)
    return sol, None if tree is None else Fraction(tree, g.metric.scale)


def steiner_forest_exact(inst: Instance) -> SteinerSolution:
    """Exact minimum-weight forest connecting every pair."""
    return exact_optima(inst)[0]


def tree_optimum(
    inst: Instance, cap_terminals: Optional[int] = None
) -> SteinerSolution:
    """Optimum single-tree solution: Steiner tree over all pair endpoints."""
    return steiner_tree_exact(inst.graph, sorted(inst.terminals()), cap_terminals)


# -- ball queries and the disjoint-ball lower bound ---------------------------

def opt_weight_in_ball(
    sol: SteinerSolution, g: WeightedGraph, center: int, radius: Fraction
) -> Fraction:
    """Total weight of solution edges with both endpoints inside the open ball.

    An edge with one endpoint strictly inside and one strictly outside means
    the graph was not subdivided finely enough: precondition error.
    """
    dist = Distances(g, center, radius)
    total = Fraction(0)
    for idx in sol.edge_indices:
        u, v, w = g.edges[idx]
        su, sv = dist.side(u, radius), dist.side(v, radius)
        if {su, sv} == {-1, 1}:
            raise InputError(
                f"solution edge ({u},{v}) crosses the ball boundary; subdivide first"
            )
        if su < 0 and sv < 0:
            total += w
    return total


@dataclass(frozen=True)
class DualLowerBoundReport:
    balls_disjoint: bool
    centers_are_terminals: bool
    radii_below_mate_distance: bool
    sum_radii: Fraction
    bound_holds: bool
    offenders: tuple[str, ...]

    @property
    def premises_hold(self) -> bool:
        return (
            self.balls_disjoint
            and self.centers_are_terminals
            and self.radii_below_mate_distance
        )

    @property
    def vacuous(self) -> bool:
        return not self.premises_hold


def dual_lower_bound_audit(
    balls: list[tuple[int, Fraction]],
    inst: Instance,
    mates: MateMap,
    opt_weight: Fraction,
) -> DualLowerBoundReport:
    """Audit the disjoint-ball lower bound: sum of radii <= optimum weight.

    Premises checked: balls pairwise vertex-disjoint; every center is a
    terminal; every radius strictly below the distance from the center to a
    mate of one of its occurrences.  A failed premise makes the bound
    vacuous, which is reported rather than asserted.
    """
    g = inst.graph
    offenders: list[str] = []
    radii = [Fraction(radius) for _, radius in balls]
    dists = [Distances(g, center, r) for (center, _), r in zip(balls, radii)]
    overlaps = overlapping_pairs([d.ball(r) for d, r in zip(dists, radii)])
    for i, j in overlaps:
        offenders.append(f"balls {i} and {j} share a vertex")
    disjoint = not overlaps
    centered = True
    radii_ok = True
    for i, (center, _) in enumerate(balls):
        occ = mates.occurrences(center)
        if not occ:
            centered = False
            offenders.append(f"ball {i} center {center} is not a terminal")
            continue
        if not any(dists[i].side(mate, radii[i]) > 0 for _, mate in occ):
            radii_ok = False
            offenders.append(f"ball {i} radius is not below its mate distance")
    total = sum(radii, Fraction(0))
    premises = disjoint and centered and radii_ok
    return DualLowerBoundReport(
        balls_disjoint=disjoint,
        centers_are_terminals=centered,
        radii_below_mate_distance=radii_ok,
        sum_radii=total,
        bound_holds=(total <= opt_weight) if premises else False,
        offenders=tuple(offenders),
    )
