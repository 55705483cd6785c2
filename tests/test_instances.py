from fractions import Fraction

import pytest

from greedysf.errors import InputError, ParseError
from greedysf.graph import WeightedGraph, distances_from, girth, shortest_path
from greedysf.instances import (
    CAGES,
    Instance,
    MateMap,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
    maximal_matching,
    parse_instance,
    serialize_instance,
    validate_instance,
)

F = Fraction


def test_validate_well_formed():
    g = WeightedGraph(4, [(0, 1, F(1)), (2, 3, F(1))])
    inst = make_instance(g, [(0, 1), (2, 3)])
    assert validate_instance(inst) == []


def test_validate_degenerate_pair():
    g = WeightedGraph(2, [(0, 1, F(1))])
    inst = Instance(
        graph=g,
        pairs=(type(make_instance(g, [(0, 1)]).pairs[0])(0, 0),),
        schedule=((),),
    )
    problems = validate_instance(inst)
    assert any("pairs[0]" in p and "s == t" in p for p in problems)


def test_validate_schedule_length():
    g = WeightedGraph(2, [(0, 1, F(1))])
    inst = Instance(graph=g, pairs=make_instance(g, [(0, 1)]).pairs, schedule=())
    assert any("schedule" in p for p in validate_instance(inst))


def test_roundtrip_empty_instance():
    g = WeightedGraph(3, [(0, 1, F(2))])
    inst = make_instance(g, [])
    assert parse_instance(serialize_instance(inst)) == inst


def test_roundtrip_one_pair_with_schedule():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(3))])
    inst = make_instance(g, [(0, 2)], [[(0, 2, F(5, 3))]])
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text


def test_roundtrip_random_instance():
    inst = gen_random_instance(9, 14, 6, seed=7)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst


def test_parse_rejects_unknown_field():
    with pytest.raises(ParseError):
        parse_instance('{"graph": {"n": 1, "edges": []}, "pairs": [], "schedule": [], "x": 1}')


def test_parse_instance_rejects_unreduced_and_unknown():
    rest = '"pairs": [], "schedule": []}'
    with pytest.raises(ParseError, match="not reduced"):
        parse_instance('{"graph": {"n": 2, "edges": [[0, 1, "2/4"]]}, ' + rest)
    with pytest.raises(ParseError, match="unknown fields"):
        parse_instance('{"graph": {"n": 2, "edges": [], "extra": 1}, ' + rest)
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_instance("{not json")


# -- matchings ----------------------------------------------------------------

def test_maximal_matching_empty():
    assert maximal_matching(WeightedGraph(3, [])) == []


def test_maximal_matching_triangle():
    g = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1))])
    assert maximal_matching(g) == [(0, 1)]


def brute_force_is_maximal(edges, matching):
    used = {v for e in matching for v in e}
    for u, v in edges:
        if u not in used and v not in used:
            return False
    return True


@pytest.mark.parametrize("cage", sorted(CAGES))
def test_maximal_matching_cages(cage):
    inst = gen_girth_lower_bound(cage)
    non_tree = [
        (u, v) for u, v, w in inst.graph.edges if w != 1
    ]
    matching = [(p.s, p.t) for p in inst.pairs]
    assert len(matching) >= 2
    assert len({v for e in matching for v in e}) == 2 * len(matching)
    assert brute_force_is_maximal(non_tree, matching)


def brute_force_maximum_matching(edges):
    best = 0
    edges = list(edges)

    def rec(i, used, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, size + 1)

    rec(0, frozenset(), 0)
    return best


@pytest.mark.parametrize("cage", sorted(CAGES))
def test_maximal_vs_maximum_matching_logged(cage):
    """The greedy matching is recorded against the true maximum, not asserted
    equal: a maximal matching already pins the per-pair cost, and the size gap
    is at most the usual factor two."""
    inst = gen_girth_lower_bound(cage)
    non_tree = [(u, v) for u, v, w in inst.graph.edges if w != 1]
    greedy_size = inst.k
    maximum = brute_force_maximum_matching(non_tree)
    assert maximum // 2 <= greedy_size <= maximum
    print(f"{cage}: greedy matching {greedy_size}, maximum {maximum}")


# -- cage catalog --------------------------------------------------------------

CAGE_FACTS = {
    "petersen": (10, 15, 5),
    "heawood": (14, 21, 6),
    "mcgee": (24, 36, 7),
    "tutte_coxeter": (30, 45, 8),
}


@pytest.mark.parametrize("cage", sorted(CAGE_FACTS))
def test_cage_catalog_facts(cage):
    n, m, g_value = CAGE_FACTS[cage]
    vertices, edges = CAGES[cage]
    assert vertices == n and len(edges) == m
    graph = WeightedGraph(n, [(u, v, F(1)) for u, v in edges])
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    assert set(degrees) == {3}  # cubic
    assert girth(graph) == g_value


@pytest.mark.parametrize("cage", sorted(CAGE_FACTS))
def test_girth_instance_structure(cage):
    n, m, g_value = CAGE_FACTS[cage]
    inst = gen_girth_lower_bound(cage)
    tree_edges = [e for e in inst.graph.edges if e[2] == 1]
    heavy_edges = [e for e in inst.graph.edges if e[2] != 1]
    assert len(tree_edges) == n - 1
    assert all(w == F(g_value, 2) for _, _, w in heavy_edges)
    assert sum(w for _, _, w in tree_edges) == n - 1
    assert all(len(s) == 0 for s in inst.schedule)
    # every pair sits at original distance exactly g/2
    for p in inst.pairs:
        assert shortest_path(inst.graph, p.s, p.t).distance == F(g_value, 2)


def test_girth_instance_petersen_counts():
    inst = gen_girth_lower_bound("petersen")
    assert inst.graph.n == 10 and len(inst.graph.edges) == 15
    assert sum(1 for _, _, w in inst.graph.edges if w == 1) == 9
    assert sum(1 for _, _, w in inst.graph.edges if w == F(5, 2)) == 6


def test_girth_instance_heawood_counts():
    inst = gen_girth_lower_bound("heawood")
    assert inst.graph.n == 14
    assert girth(inst.graph) == 6
    assert all(
        w in (1, F(3)) for _, _, w in inst.graph.edges
    )


def test_unknown_cage():
    with pytest.raises(InputError):
        gen_girth_lower_bound("nope")


# -- random generator -----------------------------------------------------------

def test_random_tree_shape():
    inst = gen_random_instance(5, 4, 1, seed=0)
    assert len(inst.graph.edges) == 4 and inst.k == 1
    assert validate_instance(inst) == []


def test_random_deterministic():
    a = gen_random_instance(10, 20, 5, seed=3)
    b = gen_random_instance(10, 20, 5, seed=3)
    assert serialize_instance(a) == serialize_instance(b)
    assert validate_instance(a) == []


def test_random_infeasible():
    with pytest.raises(InputError):
        gen_random_instance(5, 3, 1, seed=0)
    with pytest.raises(InputError):
        gen_random_instance(5, 11, 1, seed=0)
    with pytest.raises(InputError):
        gen_random_instance(5, 5, 11, seed=0)


def test_random_connected():
    for seed in range(5):
        inst = gen_random_instance(8, 10, 3, seed=seed)
        assert all(d is not None for d in distances_from(inst.graph, 0))


# -- canonical nested generator ---------------------------------------------------

def test_canonical_nested_single_class():
    inst = gen_canonical_nested(1, 3, delta=20, seed=0)
    assert inst.k == 3
    weights = {w for edges in inst.schedule for _, _, w in edges}
    assert weights == {F(2)}  # one class cost only
    for p, edges in zip(inst.pairs, inst.schedule):
        (u, v, w) = edges[0]
        assert {u, v} == {p.s, p.t}
        assert shortest_path(inst.graph, p.s, p.t).distance == w


def test_canonical_nested_costs_and_budget():
    inst = gen_canonical_nested(2, 3, delta=20, seed=2)
    costs = sorted(
        {edges[0][2] for edges in inst.schedule}, reverse=True
    )
    assert len(costs) == 2 and costs[0] / costs[1] == 2**30
    with pytest.raises(InputError):
        gen_canonical_nested(10, 10, delta=20, seed=0)


# -- mates -------------------------------------------------------------------------

def test_mate_map_occurrences():
    g = WeightedGraph(4, [(0, 1, F(1)), (0, 2, F(1)), (2, 3, F(1))])
    inst = make_instance(g, [(0, 1), (0, 2)])
    mates = MateMap(inst)
    assert mates.occurrences(0) == [(0, 1), (1, 2)]
    assert mates.occurrences(1) == [(0, 0)]
    assert mates.occurrences(2) == [(1, 0)] and mates.occurrences(3) == []

