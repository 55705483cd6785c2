import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedysf.errors import InputError, InternalConsistencyError
from greedysf.graph import (
    Distances,
    Metric,
    UnionFind,
    WeightedGraph,
    default_eta,
    distances_from,
    first_overlap,
    girth,
    open_ball,
    graph_to_obj,
    obj_to_graph,
    overlapping_pairs,
    shortest_path,
    spanning_forest,
    subdivide_edges,
)

F = Fraction


def path_graph(weights):
    return WeightedGraph(
        len(weights) + 1, [(i, i + 1, F(w)) for i, w in enumerate(weights)]
    )


def petersen_unit():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, F(1)))
        edges.append((i, 5 + i, F(1)))
        edges.append((5 + i, 5 + (i + 2) % 5, F(1)))
    return WeightedGraph(10, edges)


def bfs_hops(graph, source):
    """Independent unweighted BFS oracle (hop counts)."""
    adj = [[] for _ in range(graph.n)]
    for u, v, _ in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@st.composite
def random_graphs(draw, max_n=8, max_w=12, zero_edges=False):
    n = draw(st.integers(2, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), min_size=1, max_size=len(all_pairs))
    )
    low = 0 if zero_edges else 1
    edges = [
        (u, v, F(draw(st.integers(low, max_w)))) for u, v in chosen
    ]
    return WeightedGraph(n, edges)


def test_shortest_path_identity():
    g = path_graph([1, 1])
    res = shortest_path(g, 1, 1)
    assert res.distance == 0 and res.path == (1,)


def test_shortest_path_chain():
    g = path_graph([1, 1])
    res = shortest_path(g, 0, 2)
    assert res.distance == 2 and res.path == (0, 1, 2)


def test_shortest_path_unreachable():
    g = WeightedGraph(3, [(0, 1, F(1))])
    res = shortest_path(g, 0, 2)
    assert res.distance is None and res.path is None


def test_shortest_path_invalid_vertex():
    with pytest.raises(InputError):
        shortest_path(path_graph([1]), 0, 5)


def test_petersen_diameter_two():
    g = petersen_unit()
    hops = bfs_hops(g, 0)
    far = [v for v, d in hops.items() if d == 2]
    assert far  # the Petersen graph has diameter 2
    for v in far:
        assert shortest_path(g, 0, v).distance == 2


def test_petersen_weighted_matches_bfs_oracle():
    g = petersen_unit()
    for s in range(g.n):
        hops = bfs_hops(g, s)
        dist = distances_from(g, s)
        for v in range(g.n):
            assert dist[v] == hops[v]


def test_deterministic_tie_breaking():
    # two equal routes 0-1-3 and 0-2-3; the smaller predecessor wins
    g= WeightedGraph(4, [(0, 1, F(1)), (0, 2, F(1)), (1, 3, F(1)), (2, 3, F(1))])
    assert shortest_path(g, 0, 3).path == (0, 1, 3)


def test_zero_weight_edges_ok():
    g = WeightedGraph(3, [(0, 1, F(0)), (1, 2, F(0))])
    res = shortest_path(g, 0, 2)
    assert res.distance == 0 and res.path == (0, 1, 2)


def test_open_ball_examples():
    g = path_graph([1, 1])
    assert open_ball(g, 0, F(0)) == frozenset()
    assert open_ball(g, 0, F(3, 2)) == {0, 1}
    # distance exactly 2 is excluded: the ball is open
    assert open_ball(g, 0, F(2)) == {0, 1}
    assert open_ball(g, 0, F(5, 2)) == {0, 1, 2}


def test_distances_side_examples():
    # rational weights exercise the common scale; vertex 3 is unreachable
    g = WeightedGraph(4, [(0, 1, F(1, 3)), (1, 2, F(1, 2))])
    dist = Distances(g, 0, F(5, 6))
    assert [dist.side(v, F(5, 6)) for v in range(4)] == [-1, -1, 0, 1]
    assert dist.ball(F(5, 6)) == {0, 1}
    with pytest.raises(InputError):
        dist.ball(F(-1))


@st.composite
def rational_graphs(draw, max_n=8, max_num=12, max_den=6):
    """Graphs with weights a/b, zero weights and parallel edges included.

    Sparse draws leave some vertices unreachable from any given center.
    """
    n = draw(st.integers(2, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n))
    weight = st.builds(F, st.integers(0, max_num), st.integers(1, max_den))
    return WeightedGraph(n, [(u, v, draw(weight)) for u, v in chosen])


@settings(max_examples=150, deadline=None)
@given(rational_graphs(), st.data())
def test_bounded_distances_agree_with_unbounded(g, data):
    center = data.draw(st.integers(0, g.n - 1))
    reference = distances_from(g, center)  # one unbounded search
    reached = sorted({d for d in reference if d is not None})
    # 0, a vertex's own distance (the sphere case), past every vertex, or any
    R = data.draw(
        st.sampled_from([F(0), reached[-1] + 1, *reached])
        | st.builds(F, st.integers(0, 40), st.integers(1, 7))
    )
    bounded = Distances(g, center, R)
    radii = {F(0), R, R / 2, *(d for d in reached if d <= R)}
    radii |= {(a + b) / 2 for a, b in zip(sorted(radii), sorted(radii)[1:])}
    for r in radii:
        expected = [1 if d is None else (d > r) - (d < r) for d in reference]
        assert [bounded.side(v, r) for v in range(g.n)] == expected
        inside = {v for v, side in enumerate(expected) if side < 0}
        assert bounded.ball(r) == inside


def zero_border_reference(g, center, radius):
    """The zero-border cut by a whole-graph scan of Fraction distances."""
    dist = distances_from(g, center)
    side = [1 if d is None else (d > radius) - (d < radius) for d in dist]
    for u, v, _ in g.edges:
        if {side[u], side[v]} == {-1, 1}:
            return f"edge ({u},{v}) crosses the sphere of radius {radius}"
    kept = [v for v in range(g.n) if side[v] <= 0]
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v], w) for u, v, w in g.edges if side[u] <= 0 and side[v] <= 0
    ]
    border = [v for v in kept if side[v] == 0]
    edges += [(remap[u], remap[v], F(0)) for u, v in itertools.combinations(border, 2)]
    return WeightedGraph(len(kept), edges), remap


@settings(max_examples=100, deadline=None)
@given(rational_graphs(), st.data())
def test_induced_zero_border_matches_whole_graph_scan(g, data):
    center = data.draw(st.integers(0, g.n - 1))
    radius = data.draw(st.builds(F, st.integers(0, 30), st.integers(1, 6)))
    # a search run past the radius, as for a ball's neighborhood, cuts alike
    farther = Distances(g, center, radius + data.draw(st.integers(0, 30)))
    expected = zero_border_reference(g, center, radius)
    for cut in (Distances(g, center, radius).zero_border, farther.zero_border):
        if isinstance(expected, str):
            with pytest.raises(InputError, match=re.escape(expected)):
                cut(radius)
        else:
            assert cut(radius) == expected


def test_bounded_distances_refuse_larger_radius():
    g = path_graph([1, 1, 1])
    dist = Distances(g, 0, F(1))
    # 3/2 closes over the same integer distances as 1, so it is answerable
    assert [dist.side(v, F(3, 2)) for v in range(4)] == [-1, -1, 1, 1]
    with pytest.raises(InternalConsistencyError):
        dist.side(3, F(2))
    with pytest.raises(InternalConsistencyError):
        dist.ball(F(5, 2))
    with pytest.raises(InputError):
        Distances(g, 0, F(-1))


def test_ball_search_settles_only_the_closed_ball(monkeypatch):
    from greedysf import graph

    g, _ = subdivide_edges(path_graph([1000]), F(1))
    # subdivision numbers the chain 0, 2, 3, ..., 1000, 1
    chain = [0, *range(2, 1001), 1]
    mid = chain[500]
    settled = []
    search = graph._ball_search

    def recording(*args):
        out = search(*args)
        settled.append(set(out))
        return out

    monkeypatch.setattr(graph, "_ball_search", recording)
    monkeypatch.setattr(graph, "_dijkstra", lambda *args: settled.append("full search"))
    ball = open_ball(g, mid, F(2))
    assert ball == set(chain[499:502])
    assert settled == [set(chain[498:503])]


@given(random_graphs(zero_edges=True), st.data())
@settings(max_examples=60, deadline=None)
def test_target_search_matches_full_search(g, data):
    from greedysf import graph

    metric = g.metric
    source = data.draw(st.integers(0, g.n - 1))
    targets = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    full = metric.distances(source)
    dist, _, done = graph._dijkstra(g.n, metric.adj, source, targets)
    for t in targets:
        assert (dist[t] if done[t] else None) == full[t]
    assert metric.distances_to(source, targets) == {t: full[t] for t in targets}


def test_extended_metric_is_a_fresh_copy():
    g = WeightedGraph(4, [(0, 1, F(1, 2)), (1, 2, F(3)), (2, 3, F(0)), (0, 1, F(1, 2))])
    before = [list(row) for row in g.metric.adj]
    for later in ((), (F(5),), (F(1, 3), F(7, 4))):
        run = g.metric.extended(later)
        fresh = Metric(g.n, g.edges, later)
        assert (run.n, run.scale, run.adj) == (fresh.n, fresh.scale, fresh.adj)
        run.add_edge(0, 3, F(0))
        assert g.metric.adj == before


@settings(max_examples=100, deadline=None)
@given(rational_graphs())
def test_metric_rows_carry_edge_ids(g):
    metric = g.metric
    for u, row in enumerate(metric.adj):
        ids = [ei for _, _, ei in row]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        for v, wi, ei in row:
            a, b, w = g.edges[ei]
            assert {a, b} == {u, v}
            assert wi == w * metric.scale
    # each edge has one row at either end
    ids = sorted(ei for row in metric.adj for _, _, ei in row)
    assert ids == sorted(2 * list(range(len(g.edges))))


def test_extended_metric_keeps_edge_ids():
    g = WeightedGraph(4, [(0, 1, F(1, 2)), (1, 2, F(3)), (2, 3, F(0)), (0, 1, F(1, 2))])
    for later in ((F(0),), (F(5),), (F(1, 3), F(7, 4))):
        run = g.metric.extended(later)
        factor = run.scale // g.metric.scale
        run.add_edge(0, 3, later[-1])
        wi = later[-1] * run.scale
        assert run.adj[0] == [(1, factor, 0), (1, factor, 3), (3, wi, -1)]
        assert run.adj[3] == [(2, 0, 2), (0, wi, -1)]
        assert run.adj[1] == [(v, w * factor, ei) for v, w, ei in g.metric.adj[1]]


def test_weights_must_be_nonnegative():
    for w in (F(-1, 2), -1):
        with pytest.raises(InputError):
            WeightedGraph(2, [(0, 1, w)])
    assert WeightedGraph(2, [(0, 1, 3)]).edges == ((0, 1, F(3)),)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(g):
    dist = [distances_from(g, s) for s in range(g.n)]
    for u, v, w in itertools.product(range(g.n), repeat=3):
        if dist[u][v] is not None and dist[v][w] is not None:
            assert dist[u][w] is not None
            assert dist[u][w] <= dist[u][v] + dist[v][w]


@given(random_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_shortcut_monotonicity(g, data):
    pool = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    big = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    cut = data.draw(st.integers(0, len(big)))
    small = big[:cut]
    g_small = WeightedGraph(g.n, [*g.edges, *((u, v, F(0)) for u, v in small)])
    g_big = WeightedGraph(g.n, [*g.edges, *((u, v, F(0)) for u, v in big)])
    for s in range(g.n):
        d_small = distances_from(g_small, s)
        d_big = distances_from(g_big, s)
        for v in range(g.n):
            if d_small[v] is not None:
                assert d_big[v] is not None and d_big[v] <= d_small[v]


def test_subdivide_single_edge():
    g = WeightedGraph(2, [(0, 1, F(3))])
    sub, vmap = subdivide_edges(g, F(1))
    assert sub.n == 4  # two interior vertices added
    assert all(w == 1 for _, _, w in sub.edges)
    assert vmap == {0: 0, 1: 1}
    assert shortest_path(sub, 0, 1).distance == 3


def test_subdivide_keeps_zero_edges():
    g = WeightedGraph(2, [(0, 1, F(0))])
    sub, _ = subdivide_edges(g, F(5))
    assert sub.edges == g.edges


def test_subdivide_rejects_non_multiple():
    g = WeightedGraph(2, [(0, 1, F(3, 2))])
    with pytest.raises(InputError):
        subdivide_edges(g, F(1))


@given(random_graphs(max_n=8, max_w=6))
@settings(max_examples=25, deadline=None)
def test_subdivide_preserves_distances(g):
    eta = default_eta(g)
    sub, _ = subdivide_edges(g, eta)
    for s in range(g.n):
        original = distances_from(g, s)
        subdivided = distances_from(sub, s)
        for v in range(g.n):
            assert original[v] == subdivided[v]


def eager_subdivision(g, eta):
    """The eta-subdivision with every chain built up front, chain by chain."""
    edges, next_id = [], g.n
    for u, v, w in g.edges:
        if w == 0:
            edges.append((u, v, w))
            continue
        prev = u
        for _ in range(1, (w / eta).numerator):
            edges.append((prev, next_id, eta))
            prev = next_id
            next_id += 1
        edges.append((prev, v, eta))
    return WeightedGraph(next_id, edges)


@settings(max_examples=60, deadline=None)
@given(rational_graphs(max_n=6, max_num=6, max_den=4), st.sampled_from([1, 2, 3]), st.data())
def test_implicit_subdivision_matches_materialized(g, divisor, data):
    # a proper divisor of the default eta puts the subdivision's metric on
    # another scale than the base graph's
    eta = default_eta(g) / divisor
    lazy, vmap = subdivide_edges(g, eta)
    assert vmap == {v: v for v in range(g.n)}
    built, _ = subdivide_edges(g, eta)
    eager = eager_subdivision(g, eta)
    assert (built.n, built.edges) == (eager.n, eager.edges)
    assert built == eager and hash(built) == hash(eager)
    plain = WeightedGraph(eager.n, eager.edges)
    for center in range(g.n):
        reference = distances_from(plain, center)
        on_chains = sorted({d for d in reference[g.n :] if d is not None})
        reached = sorted({d for d in reference if d is not None})
        # a chain point's distance, past every vertex, or any
        R = data.draw(
            st.sampled_from([reached[-1] + eta, *on_chains])
            | st.builds(F, st.integers(0, 40), st.integers(1, 7))
        )
        implicit, materialized = Distances(lazy, center, R), Distances(plain, center, R)
        assert implicit.dist == materialized.dist
        assert (implicit.scale, implicit.bound) == (materialized.scale, materialized.bound)
        radii = {F(0), R, *data.draw(st.lists(st.sampled_from(on_chains or [R]), max_size=4))}
        radii = {r for r in radii if r <= R}
        radii |= {(a + b) / 2 for a, b in zip(sorted(radii), sorted(radii)[1:])}
        probes = sorted(set(materialized.dist) | set(range(g.n)) | {plain.n - 1})
        for r in radii:
            assert implicit.ball(r) == materialized.ball(r)
            assert [implicit.side(v, r) for v in probes] == [
                materialized.side(v, r) for v in probes
            ]
    # every answer came from the base graph: the subdivision stayed implicit
    assert lazy._edges is None and lazy._metric is None


def test_induced_zero_border_degenerate_radius():
    g = path_graph([1, 1])
    cut, remap = Distances(g, 0, F(10)).zero_border(F(10))
    assert cut.n == 3 and len(cut.edges) == 2
    assert remap == {0: 0, 1: 1, 2: 2}


def test_induced_zero_border_star():
    # three rays of two unit edges; cutting at radius 2 joins the leaves
    edges = []
    n = 1
    leaves = []
    for _ in range(3):
        mid, leaf = n, n + 1
        edges += [(0, mid, F(1)), (mid, leaf, F(1))]
        leaves.append(leaf)
        n += 2
    g = WeightedGraph(n, edges)
    cut, remap = Distances(g, 0, F(2)).zero_border(F(2))
    zero_edges = [(u, v) for u, v, w in cut.edges if w == 0]
    mapped = {remap[leaf] for leaf in leaves}
    assert len(zero_edges) == 3  # leaf clique
    assert {v for e in zero_edges for v in e} == mapped


def test_induced_zero_border_crossing_edge_rejected():
    g = path_graph([2])
    with pytest.raises(InputError):
        Distances(g, 0, F(1)).zero_border(F(1))


def test_induced_zero_border_sphere_distance_zero():
    g, _ = subdivide_edges(petersen_unit(), F(1, 2))
    cut, remap = Distances(g, 0, F(3, 2)).zero_border(F(3, 2))
    dist = Distances(g, 0, F(3, 2))
    boundary = [v for v in range(g.n) if dist.side(v, F(3, 2)) == 0]
    assert boundary
    for u, v in itertools.combinations(boundary, 2):
        assert shortest_path(cut, remap[u], remap[v]).distance == 0


def test_girth_examples():
    tree = path_graph([1, 1, 1])
    assert girth(tree) is None
    triangle = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1))])
    assert girth(triangle) == 3
    assert girth(petersen_unit()) == 5
    parallel = WeightedGraph(2, [(0, 1, F(1)), (0, 1, F(2))])
    assert girth(parallel) == 2


def test_girth_ignores_weights():
    heavy = WeightedGraph(3, [(0, 1, F(100)), (1, 2, F(1)), (0, 2, F(1))])
    assert girth(heavy) == 3


@st.composite
def multigraphs(draw, max_n=8):
    """Graphs on 1 to max_n vertices whose edges may repeat, weigh zero, or
    leave vertices isolated: forests, cycles and two-cycles all occur."""
    n = draw(st.integers(1, max_n))
    ordered = list(itertools.permutations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(ordered), max_size=n + 1)) if ordered else []
    weight = st.builds(F, st.integers(0, 4), st.integers(1, 3))
    return WeightedGraph(n, [(u, v, draw(weight)) for u, v in chosen])


def union_find_is_forest(g):
    """Acyclic iff no edge joins two vertices a union-find already joined."""
    uf = UnionFind()
    return all(uf.union(u, v) for u, v, _ in g.edges)


def depth_first_forest(g):
    """(root, parent, parent edge, depth) of a depth-first walk from each
    component's least vertex; on a forest there is only one such rooting."""
    root, parent, parent_edge, depth = [-1] * g.n, [-1] * g.n, [-1] * g.n, [0] * g.n
    for r in range(g.n):
        if root[r] != -1:
            continue
        root[r] = r
        stack = [r]
        while stack:
            u = stack.pop()
            for v, _, ei in g.metric.adj[u]:
                if root[v] == -1:
                    root[v], parent[v], parent_edge[v] = r, u, ei
                    depth[v] = depth[u] + 1
                    stack.append(v)
    return root, parent, parent_edge, depth


@given(multigraphs())
@settings(max_examples=300, deadline=None)
def test_spanning_forest_matches_union_find_and_depth_first_walks(g):
    walk = spanning_forest(g)
    assert walk.is_forest == union_find_is_forest(g)
    root, parent, parent_edge, depth = depth_first_forest(g)
    assert walk.root == root
    for v in range(g.n):
        # breadth-first: each depth is the hop count from the root
        assert walk.depth[v] == bfs_hops(g, root[v])[v]
        if v != root[v]:
            u, w, _ = g.edges[walk.parent_edge[v]]
            assert {u, w} == {v, walk.parent[v]}
    if walk.is_forest:
        assert (walk.parent, walk.parent_edge, walk.depth) == (parent, parent_edge, depth)


def test_spanning_forest_examples():
    single = spanning_forest(WeightedGraph(1, []))
    assert (single.root, single.parent, single.depth, single.is_forest) == ([0], [-1], [0], True)
    # an isolated vertex, and two parallel edges (one of weight zero) closing a cycle
    walk = spanning_forest(WeightedGraph(5, [(3, 4, F(0)), (1, 0, F(1)), (4, 3, F(2))]))
    assert walk.root == [0, 0, 2, 3, 3] and walk.parent_edge == [-1, 1, -1, -1, 0]
    assert not walk.is_forest


def test_graph_serialization_roundtrip():
    g = WeightedGraph(3, [(0, 1, F(5, 2)), (1, 2, F(0))])
    obj = graph_to_obj(g)
    assert obj_to_graph(obj) == g
    assert graph_to_obj(obj_to_graph(obj)) == obj


def test_self_loop_rejected():
    with pytest.raises(InputError):
        WeightedGraph(2, [(1, 1, F(1))])


@given(
    st.lists(st.frozensets(st.integers(0, 12), max_size=5), max_size=8),
    st.frozensets(st.integers(0, 12), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_overlap_queries_match_pairwise_intersection(member_sets, members):
    expected = [
        (i, j)
        for i in range(len(member_sets))
        for j in range(i + 1, len(member_sets))
        if member_sets[i] & member_sets[j]
    ]
    assert overlapping_pairs(member_sets) == expected
    hits = [i for i, other in enumerate(member_sets) if other & members]
    assert first_overlap(member_sets, members) == (hits[0] if hits else None)
