"""Exact-weight undirected graphs.

Vertices are dense ids 0..n-1.  Edge weights are nonnegative rationals;
parallel edges are permitted (zero-weight shortcuts duplicate endpoints),
self-loops are not.  All distance computations are exact: a `Metric` holds
the weights rescaled to integers by the lcm of their denominators, so the
hot loops run on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappush, heappop
from typing import Iterable, Optional

from .errors import InputError, InternalConsistencyError, ParseError
from .exact import format_fraction, parse_edge, parse_int, parse_list

Edge = tuple[int, int, Fraction]


class WeightedGraph:
    """Immutable undirected graph with exact rational edge weights."""

    __slots__ = ("n", "edges", "_metric")

    def __init__(self, n: int, edges: list[Edge]):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        normalized = []
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) references an invalid vertex id")
            if u == v:
                raise InputError(f"self-loop at vertex {u} not allowed")
            if type(w) is not Fraction:
                w = Fraction(w)
            if w.numerator < 0:
                raise InputError(f"negative weight on edge ({u},{v})")
            normalized.append((u, v, w))
        self.n = n
        self.edges = tuple(normalized)
        self._metric = None

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={len(self.edges)})"

    @property
    def metric(self) -> "Metric":
        """The integer metric of this graph; callers must not add edges to it,
        only to a copy from `Metric.extended`."""
        if self._metric is None:
            self._metric = Metric(self.n, self.edges, ())
        return self._metric

    def _bounded_search(self, center: int, radius: Fraction) -> tuple[int, int, dict[int, int]]:
        """(scale, bound, dist) of one search from center bounded at radius:
        `dist` maps each vertex within radius to its distance times the
        metric's scale, and bound is floor(radius * scale)."""
        metric = self.metric
        bound = radius.numerator * metric.scale // radius.denominator
        return metric.scale, bound, _ball_search(metric.adj, center, bound)

    def check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise InputError(f"invalid vertex id {v} (n={self.n})")


@dataclass(frozen=True)
class PathResult:
    """Exact shortest-path answer; distance/path are None iff unreachable."""

    distance: Optional[Fraction]
    path: Optional[tuple[int, ...]]

    @property
    def reachable(self) -> bool:
        return self.distance is not None


def _dijkstra(n, adj, source, targets=frozenset()):
    """Shortest paths with deterministic predecessors.

    Ties are resolved toward the smallest predecessor id among vertices
    settled earlier in the (distance, id) order; with zero-weight edges this
    restriction is what keeps predecessor chains acyclic.

    Returns the lists (dist, pred, done).  The search stops as soon as every
    vertex of the set `targets` is settled (it runs to exhaustion when the
    set is empty or some target is unreachable); then only the entries of
    the vertices marked done are final, and the targets are among them.
    """
    dist = [None] * n
    pred = [-1] * n
    done = [False] * n
    dist[source] = 0
    left = len(targets)
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u in targets:
            left -= 1
            if not left:
                break
        for v, w, _ in adj[u]:
            if done[v]:
                continue
            nd = d + w
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
            elif nd == dv and u < pred[v]:
                pred[v] = u
    return dist, pred, done


def _ball_search(adj, source, bound):
    """Distances of the vertices within the integer `bound` of source, in
    settling order; ball-local, it allocates nothing of size n."""
    settled = {}
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        if d > bound:
            break
        settled[u] = d
        for v, w, _ in adj[u]:
            if v in settled:
                continue
            nd = d + w
            dv = dist.get(v)
            if dv is None or nd < dv:
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled


class Metric:
    """Undirected integer adjacency over one common scale.

    `adj[u]` holds one row (neighbour, w * scale, edge index) per edge at u:
    first those of `edges` in index order, then those added afterwards, whose
    index is -1.  The scale is the lcm of the denominators of `edges` and of
    `later`, the weights of edges to be added afterwards, so it is fixed up
    front and every comparison and tie of the rational metric is kept exactly.
    """

    __slots__ = ("n", "adj", "scale")

    def __init__(self, n: int, edges: tuple[Edge, ...], later: Iterable[Fraction]):
        self.n = n
        self.scale = math.lcm(
            *(w.denominator for _, _, w in edges), *(w.denominator for w in later)
        )
        self.adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for ei, (u, v, w) in enumerate(edges):
            self.add_edge(u, v, w, ei)

    def add_edge(self, u: int, v: int, w: Fraction, ei: int = -1):
        """Store w as w * scale under edge index `ei`; a weight the scale does
        not cover is an input error."""
        den, scale = w.denominator, self.scale
        if scale % den:
            raise InputError(f"weight {w} is not a multiple of 1/{scale}")
        wi = w.numerator * (scale // den)
        self.adj[u].append((v, wi, ei))
        self.adj[v].append((u, wi, ei))

    def extended(self, later: Iterable[Fraction]) -> "Metric":
        """A copy whose scale also covers the weights `later`, to add edges to.

        The copy equals `Metric(n, edges, later)` over this metric's edges; it
        shares no adjacency list with this metric.
        """
        scale = math.lcm(self.scale, *(w.denominator for w in later))
        factor = scale // self.scale
        copy = object.__new__(Metric)
        copy.n, copy.scale = self.n, scale
        if factor == 1:
            copy.adj = [row.copy() for row in self.adj]
        else:
            copy.adj = [[(v, w * factor, ei) for v, w, ei in row] for row in self.adj]
        return copy

    def distances(self, source: int) -> list[Optional[int]]:
        """Integer distances (times scale) from source; None where unreachable."""
        return _dijkstra(self.n, self.adj, source)[0]

    def distances_to(self, source: int, targets: set[int]) -> dict[int, Optional[int]]:
        """Integer distances from source to each target, None where unreachable;
        the search stops once every target is settled."""
        dist, _, done = _dijkstra(self.n, self.adj, source, targets)
        return {t: dist[t] if done[t] else None for t in targets}

    def shortest(self, s: int, t: int) -> PathResult:
        """Exact shortest path from s to t with deterministic tie-breaking."""
        dist, pred, done = _dijkstra(self.n, self.adj, s, {t})
        if not done[t]:
            return PathResult(None, None)
        path = [t]
        while path[-1] != s:
            path.append(pred[path[-1]])
        path.reverse()
        return PathResult(Fraction(dist[t], self.scale), tuple(path))


def distances_from(g: WeightedGraph, source: int) -> list[Optional[Fraction]]:
    g.check_vertex(source)
    metric = g.metric
    return [
        None if d is None else Fraction(d, metric.scale)
        for d in metric.distances(source)
    ]


def shortest_path(g: WeightedGraph, s: int, t: int) -> PathResult:
    """Exact shortest path from s to t with deterministic tie-breaking."""
    g.check_vertex(s)
    g.check_vertex(t)
    return g.metric.shortest(s, t)


class Distances:
    """Exact distances from one center, for comparisons against radii.

    Holds one shortest-path run bounded at `radius`: the integer distances
    (over the graph's common scale) of the closed ball only, so a ball
    question costs the size of the ball, not of the graph.  A vertex the run
    did not reach lies beyond the radius; a question whose closed ball could
    hold a vertex beyond the run raises.  Every ball-side question is
    answered by cross-multiplication without building a Fraction per vertex.
    One run answers every radius up to the one it was run to: the open ball,
    the zero-border cut, and the side of any vertex.  On a `SubdividedGraph`
    a base-vertex center runs on the base graph and builds neither the
    subdivision's edges nor its metric; `dist` holds the same vertices and
    integers as the search on the built subdivision would.  Of the answers,
    only the zero-border cut reads the subdivision's edges.
    """

    __slots__ = ("graph", "center", "dist", "scale", "bound")

    def __init__(self, g: WeightedGraph, center: int, radius: Fraction):
        g.check_vertex(center)
        radius = Fraction(radius)
        if radius < 0:
            raise InputError("ball radius must be nonnegative")
        self.graph = g
        self.center = center
        self.scale, self.bound, self.dist = g._bounded_search(center, radius)

    def _rhs(self, radius: Fraction) -> int:
        """radius.numerator * scale; raises if radius is negative or the run
        stopped short of it."""
        rhs = radius.numerator * self.scale
        if rhs < 0:
            raise InputError("ball radius must be nonnegative")
        if rhs // radius.denominator > self.bound:
            raise InternalConsistencyError(
                f"radius {radius} exceeds the bound this search from "
                f"{self.center} was run to"
            )
        return rhs

    def side(self, v: int, radius: Fraction) -> int:
        """-1 strictly inside the radius, 0 on the sphere, 1 beyond or unreachable."""
        rhs = self._rhs(radius)
        d = self.dist.get(v)
        if d is None:
            return 1
        lhs = d * radius.denominator
        return (lhs > rhs) - (lhs < rhs)

    def ball(self, radius: Fraction) -> frozenset[int]:
        """Members {u : d(center, u) < radius} of the open ball; radius 0 gives none."""
        radius = Fraction(radius)
        rden, rhs = radius.denominator, self._rhs(radius)
        return frozenset(v for v, d in self.dist.items() if d * rden < rhs)

    def zero_border(self, radius: Fraction) -> tuple[WeightedGraph, dict[int, int]]:
        """Graph induced on the closed ball, plus a zero clique on its sphere.

        Requires that no edge jumps over the sphere: an edge with one endpoint
        strictly inside and the other strictly outside is a precondition error
        (the caller must subdivide first).  Returns the new graph and the map
        from old vertex ids to new dense ids.
        """
        radius = Fraction(radius)
        g = self.graph
        # the closed ball; every vertex the search did not reach is beyond
        sides = {v: s for v in self.dist if (s := self.side(v, radius)) <= 0}
        adj = g.metric.adj
        crossing = [
            ei for u, su in sides.items() if su < 0 for v, _, ei in adj[u] if v not in sides
        ]
        if crossing:
            u, v, _ = g.edges[min(crossing)]
            raise InputError(
                f"edge ({u},{v}) crosses the sphere of radius {radius}; "
                "subdivide the graph first"
            )
        kept = sorted(sides)
        remap = {old: new for new, old in enumerate(kept)}
        inner = {ei for u in kept for v, _, ei in adj[u] if v in sides}
        edges = [
            (remap[u], remap[v], w) for u, v, w in (g.edges[ei] for ei in sorted(inner))
        ]
        border = [v for v in kept if sides[v] == 0]
        for i, u in enumerate(border):
            for v in border[i + 1 :]:
                edges.append((remap[u], remap[v], Fraction(0)))
        return WeightedGraph(len(kept), edges), remap


def open_ball(g: WeightedGraph, center: int, radius: Fraction) -> frozenset[int]:
    """Members of the open ball of the given center and radius."""
    return Distances(g, center, radius).ball(radius)


def overlapping_pairs(member_sets: list[frozenset[int]]) -> list[tuple[int, int]]:
    """Every (i, j), i < j, whose member sets share a vertex, i-major."""
    return [
        (i, j)
        for i, members in enumerate(member_sets)
        for j in range(i + 1, len(member_sets))
        if not members.isdisjoint(member_sets[j])
    ]


def first_overlap(member_sets: list[frozenset[int]], members) -> Optional[int]:
    """Least index of a member set sharing a vertex with `members`, or None."""
    for idx, other in enumerate(member_sets):
        if not other.isdisjoint(members):
            return idx
    return None


class UnionFind:
    """Disjoint sets over hashable items; an item joins on first touch."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def groups(self) -> list[set]:
        """Sets of every touched item, by least member."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return sorted(out.values(), key=min)


@dataclass(frozen=True)
class SpanningForest:
    """Per vertex: the root of its tree (its component's least vertex), its
    parent and the index of the edge to it (-1 at a root), and its depth; and
    whether the graph is a forest: every edge some vertex's parent edge."""

    root: list[int]
    parent: list[int]
    parent_edge: list[int]
    depth: list[int]
    is_forest: bool


def spanning_forest(g: WeightedGraph) -> SpanningForest:
    """The breadth-first forest: each component walked from its least vertex
    along the rows of the graph's metric (neighbours in edge-index order)."""
    adj = g.metric.adj
    root, parent, parent_edge, depth = [-1] * g.n, [-1] * g.n, [-1] * g.n, [0] * g.n
    for r in range(g.n):
        if root[r] != -1:
            continue
        root[r] = r
        queue = [r]
        for u in queue:
            for v, _, ei in adj[u]:
                if root[v] == -1:
                    root[v], parent[v], parent_edge[v] = r, u, ei
                    depth[v] = depth[u] + 1
                    queue.append(v)
    # the walk takes one distinct parent edge per vertex that is not a root
    forest = len(g.edges) == g.n - parent.count(-1)
    return SpanningForest(root, parent, parent_edge, depth, forest)


SUBDIVISION_EDGE_LIMIT = 2_000_000


class SubdividedGraph(WeightedGraph):
    """The eta-subdivision of `base`, implicit until its edges are read.

    The positive base edge e = (u, v, k * eta) becomes the chain u, p_1, ...,
    p_{k-1}, v of weight-eta edges, where chain point p_j has id
    base.n + offsets[e] + j - 1; zero-weight edges stay as they are.  So `n`
    is known up front, while `edges`, and with them `metric`, are built on
    first read.  A ball search from a base vertex never reads them: it runs
    on the base graph and places the chain points arithmetically.
    """

    __slots__ = ("base", "eta", "offsets", "_edges", "_scale")

    def __init__(self, base: WeightedGraph, eta: Fraction, offsets: tuple[int, ...]):
        self.base = base
        self.eta = eta
        self.offsets = offsets  # offsets[e]: chain points of the edges before e
        self.n = base.n + offsets[-1]
        self._edges = None
        self._metric = None
        # the scale of the subdivision's metric, whose weights are eta and 0
        self._scale = eta.denominator if any(w for _, _, w in base.edges) else 1

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            eta, offsets, first = self.eta, self.offsets, self.base.n
            edges: list[Edge] = []
            for ei, (u, v, w) in enumerate(self.base.edges):
                if w == 0:
                    edges.append((u, v, w))
                    continue
                prev = u
                for point in range(first + offsets[ei], first + offsets[ei + 1]):
                    edges.append((prev, point, eta))
                    prev = point
                edges.append((prev, v, eta))
            self._edges = tuple(edges)
        return self._edges

    def _bounded_search(self, center: int, radius: Fraction) -> tuple[int, int, dict[int, int]]:
        """As for any graph; from a base vertex by one search on the base.

        Chain point j of the base edge (a, b, k * eta) lies at distance
        min(d(a) + j * eta, d(b) + (k - j) * eta) from the center, since every
        path to it enters its chain at a or at b.
        """
        base = self.base
        if center >= base.n:
            return super()._bounded_search(center, radius)
        scale = self._scale
        bound = radius.numerator * scale // radius.denominator
        step = self.eta.numerator * scale // self.eta.denominator
        metric = base.metric
        near = _ball_search(
            metric.adj, center, radius.numerator * metric.scale // radius.denominator
        )
        # every base distance is a multiple of eta, so whole at this scale
        dist = {u: d * scale // metric.scale for u, d in near.items()}
        edges, offsets, first = base.edges, self.offsets, base.n
        for u in near:
            for v, _, ei in metric.adj[u]:
                lo, hi = offsets[ei], offsets[ei + 1]
                # each edge once: from its one settled end, or the lesser of two
                if lo == hi or (v in near and v < u):
                    continue
                a, b, _ = edges[ei]
                da, db = dist.get(a), dist.get(b)
                k = hi - lo + 1
                point = first + lo - 1  # point + j is chain point j
                # points j <= ja lie within the bound from a, points j >= jb from b
                ja = 0 if da is None else min(k - 1, (bound - da) // step)
                jb = k if db is None else max(1, k - (bound - db) // step)
                for j in range(1, ja + 1):
                    d = da + j * step
                    dist[point + j] = d if db is None else min(d, db + (k - j) * step)
                for j in range(max(jb, ja + 1), k):
                    dist[point + j] = db + (k - j) * step
        return scale, bound, dist


def subdivide_edges(g: WeightedGraph, eta: Fraction) -> tuple[SubdividedGraph, dict[int, int]]:
    """Replace every positive edge by a chain of weight-eta edges.

    Every positive weight must be an integer multiple of eta; zero-weight
    edges are kept intact.  Original vertices keep their ids, so the returned
    map is the identity on them; all pairwise distances among original
    vertices are preserved exactly.  The result is a `SubdividedGraph`:
    its vertex count is computed here, its edges only when first read.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise InputError("eta must be positive")
    segment_total = 0
    offsets = [0]
    for u, v, w in g.edges:
        if w == 0:
            segment_total += 1
            offsets.append(offsets[-1])
            continue
        ratio = w / eta
        if ratio.denominator != 1:
            raise InputError(
                f"edge ({u},{v}) weight {w} is not an integer multiple of eta={eta}"
            )
        segment_total += ratio.numerator
        if segment_total > SUBDIVISION_EDGE_LIMIT:
            raise InputError(
                f"subdivision at eta={eta} would create more than "
                f"{SUBDIVISION_EDGE_LIMIT} edges; pass a coarser eta"
            )
        offsets.append(offsets[-1] + ratio.numerator - 1)
    return SubdividedGraph(g, eta, tuple(offsets)), {v: v for v in range(g.n)}


def default_eta(g: WeightedGraph) -> Fraction:
    """gcd of the positive edge weights; 1 for a graph with no positive edge."""
    num_gcd, den_lcm = 0, 1
    for _, _, w in g.edges:
        if w == 0:
            continue
        num_gcd = math.gcd(num_gcd, w.numerator)
        den_lcm = math.lcm(den_lcm, w.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


def girth(g: WeightedGraph) -> Optional[int]:
    """Length of the shortest cycle of the unweighted skeleton; None if acyclic.

    Parallel edges count as a 2-cycle.  Weights are ignored: the skeleton
    hop-count is what the auxiliary-graph and cage arguments use.  The search
    walks the rows of the graph's metric.
    """
    adj = g.metric.adj
    # a row naming a neighbour twice holds two parallel edges
    if any(len({v for v, _, _ in row}) < len(row) for row in adj):
        return 2
    best = None
    for root in range(g.n):
        depth = [-1] * g.n
        parent = [-1] * g.n
        depth[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if best is not None and 2 * depth[u] >= best:
                break
            for v, _, _ in adj[u]:
                if depth[v] == -1:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    cycle = depth[u] + depth[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def graph_to_obj(g: WeightedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v, format_fraction(w)] for u, v, w in g.edges],
    }


def obj_to_graph(obj) -> WeightedGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph object must be a JSON object")
    unknown = set(obj) - {"n", "edges"}
    if unknown:
        raise ParseError(f"graph object has unknown fields: {sorted(unknown)}")
    if "n" not in obj or "edges" not in obj:
        raise ParseError("graph object needs fields 'n' and 'edges'")
    n = parse_int(obj["n"], "graph field 'n'")
    edges = [
        parse_edge(item, f"edges[{i}]")
        for i, item in enumerate(parse_list(obj["edges"], "graph field 'edges'"))
    ]
    try:
        return WeightedGraph(n, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from exc
