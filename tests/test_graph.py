import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedysf.errors import InputError, ParseError
from greedysf.graph import (
    Distances,
    WeightedGraph,
    default_eta,
    distances_from,
    girth,
    induced_zero_border,
    open_ball,
    parse_graph,
    serialize_graph,
    shortest_path,
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
    assert open_ball(g, 0, F(0)).members == frozenset()
    assert open_ball(g, 0, F(3, 2)).members == {0, 1}
    # distance exactly 2 is excluded: the ball is open
    assert open_ball(g, 0, F(2)).members == {0, 1}
    assert open_ball(g, 0, F(5, 2)).members == {0, 1, 2}


def test_distances_side_examples():
    # rational weights exercise the common scale; vertex 3 is unreachable
    g = WeightedGraph(4, [(0, 1, F(1, 3)), (1, 2, F(1, 2))])
    dist = Distances(g, 0)
    assert [dist.side(v, F(5, 6)) for v in range(4)] == [-1, -1, 0, 1]
    assert dist.ball(F(5, 6)).members == {0, 1}
    with pytest.raises(InputError):
        dist.ball(F(-1))


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
    g_small = g.with_extra_edges([(u, v, F(0)) for u, v in small])
    g_big = g.with_extra_edges([(u, v, F(0)) for u, v in big])
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


def test_induced_zero_border_degenerate_radius():
    g = path_graph([1, 1])
    cut, remap = induced_zero_border(g, 0, F(10))
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
    cut, remap = induced_zero_border(g, 0, F(2))
    zero_edges = [(u, v) for u, v, w in cut.edges if w == 0]
    mapped = {remap[leaf] for leaf in leaves}
    assert len(zero_edges) == 3  # leaf clique
    assert {v for e in zero_edges for v in e} == mapped


def test_induced_zero_border_crossing_edge_rejected():
    g = path_graph([2])
    with pytest.raises(InputError):
        induced_zero_border(g, 0, F(1))


def test_induced_zero_border_sphere_distance_zero():
    g, _ = subdivide_edges(petersen_unit(), F(1, 2))
    cut, remap = induced_zero_border(g, 0, F(3, 2))
    dist = Distances(g, 0)
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


def test_graph_serialization_roundtrip():
    g = WeightedGraph(3, [(0, 1, F(5, 2)), (1, 2, F(0))])
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_graph_parse_rejects_unreduced_and_unknown():
    with pytest.raises(ParseError):
        parse_graph('{"n": 2, "edges": [[0, 1, "2/4"]]}')
    with pytest.raises(ParseError):
        parse_graph('{"n": 2, "edges": [], "extra": 1}')
    with pytest.raises(ParseError):
        parse_graph("{not json")


def test_self_loop_rejected():
    with pytest.raises(InputError):
        WeightedGraph(2, [(1, 1, F(1))])
