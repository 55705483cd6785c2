import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from greedysf.errors import CapExceededError, InputError
from greedysf.exact import lg_plus, parse_fraction
from greedysf.graph import WeightedGraph, open_ball, subdivide_edges, default_eta
from greedysf.dualfit import build_class_duals
from greedysf.greedy import Rule, equal_cost_classes, run_greedy
from greedysf.balanced import ClassInfo, balanced_to_obj, build_balanced, verify_balanced
from greedysf.instances import (
    MateMap,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
)
from greedysf import opt
from greedysf.opt import (
    SteinerTable,
    dual_lower_bound_audit,
    exact_optima,
    opt_weight_in_ball,
    serialize_solution,
    steiner_forest_exact,
    steiner_tree_exact,
    tree_optimum,
)

F = Fraction


def test_single_terminal():
    g = WeightedGraph(3, [(0, 1, F(1))])
    sol = steiner_tree_exact(g, [1])
    assert sol.weight == 0 and sol.edge_indices == ()


def test_two_terminals_is_shortest_path():
    g = WeightedGraph(4, [(0, 1, F(1)), (1, 2, F(1)), (0, 2, F(5)), (2, 3, F(2))])
    sol = steiner_tree_exact(g, [0, 2])
    assert sol.weight == 2
    assert sol.edges == ((0, 1), (1, 2))


def test_unit_star():
    g = WeightedGraph(4, [(0, 1, F(1)), (0, 2, F(1)), (0, 3, F(1))])
    sol = steiner_tree_exact(g, [1, 2, 3])
    assert sol.weight == 3 and len(sol.edge_indices) == 3


def test_disconnected_terminals():
    g = WeightedGraph(4, [(0, 1, F(1)), (2, 3, F(1))])
    with pytest.raises(InputError):
        steiner_tree_exact(g, [0, 3])


def test_terminal_cap():
    g = WeightedGraph(20, [(i, i + 1, F(1)) for i in range(19)])
    with pytest.raises(CapExceededError):
        steiner_tree_exact(g, list(range(14)))


def test_pair_cap_is_eight():
    g = WeightedGraph(20, [(i, i + 1, F(1)) for i in range(19)])
    pairs = [(2 * i, 2 * i + 1) for i in range(9)]
    assert steiner_forest_exact(make_instance(g, pairs[:8])).weight == 8
    with pytest.raises(CapExceededError, match="9 pairs exceed the cap of 8"):
        steiner_forest_exact(make_instance(g, pairs))


@pytest.mark.parametrize("t", [1, 2, 5])
def test_steiner_table_builds_only_masks_without_the_root(t):
    inst = gen_girth_lower_bound("petersen")
    table = SteinerTable(inst.graph, tuple(sorted(inst.terminals()))[:t])
    assert sorted(table.dp) == list(range(0, 1 << t, 2))
    assert sorted(table.par) == sorted(table.dp)


def test_forest_single_pair():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(3))])
    inst = make_instance(g, [(0, 2)])
    assert steiner_forest_exact(inst).weight == 5


def test_forest_two_far_pairs():
    g = WeightedGraph(4, [(0, 1, F(2)), (2, 3, F(3))])
    inst = make_instance(g, [(0, 1), (2, 3)])
    sol = steiner_forest_exact(inst)
    assert sol.weight == 5
    assert sol.edges == ((0, 1), (2, 3))


def test_forest_petersen_bounded_by_spanning_tree():
    inst = gen_girth_lower_bound("petersen")
    sol = steiner_forest_exact(inst)
    assert sol.weight <= 9


def test_forest_petersen_matches_exhaustive_search():
    inst = gen_girth_lower_bound("petersen")
    assert steiner_forest_exact(inst).weight == brute_force_forest(inst)


def test_forest_never_uses_schedule_edges():
    g = WeightedGraph(2, [(0, 1, F(10))])
    inst = make_instance(g, [(0, 1)], [[(0, 1, F(1))]])
    assert steiner_forest_exact(inst).weight == 10


def test_tree_optimum_examples():
    g = WeightedGraph(4, [(0, 1, F(1)), (1, 2, F(1)), (2, 3, F(1))])
    single = make_instance(g, [(0, 3)])
    assert tree_optimum(single).weight == steiner_forest_exact(single).weight
    shared = make_instance(g, [(0, 1), (1, 3)])
    assert tree_optimum(shared).weight == steiner_forest_exact(shared).weight
    inst = gen_girth_lower_bound("petersen")
    assert tree_optimum(inst).weight == 9


def test_forest_not_worse_than_tree():
    for seed in range(6):
        inst = gen_random_instance(8, 12, 3, seed=seed)
        forest, tree = steiner_forest_exact(inst), tree_optimum(inst)
        assert forest.weight <= tree.weight
        assert exact_optima(inst) == (forest, tree.weight)


@pytest.mark.parametrize("rule", list(Rule))
def test_opt_lower_bounds_greedy(rule):
    for seed in range(8):
        inst = gen_random_instance(8, 11, 4, seed=seed)
        trace = run_greedy(inst, rule)
        assert steiner_forest_exact(inst).weight <= trace.total_cost


def set_partitions(items: list):
    """All set partitions of `items`, in a deterministic order: item i joins
    each block in creation order, then opens its own."""
    items = list(items)
    if not items:
        yield []
        return
    blocks: list[list] = []

    def rec(i):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def test_set_partitions_count():
    assert sum(1 for _ in set_partitions(list(range(5)))) == 52  # Bell(5)
    assert list(set_partitions([])) == [[]]


def enumerated_optima(inst):
    """(block masks, edge indices, weight, T*) of the first strict minimum over
    `set_partitions` of the pairs, each block scored by the tree oracle that
    `exact_optima` builds over the same terminals."""
    g = inst.graph
    terminals = tuple(sorted(inst.terminals()))
    pos = {t: i for i, t in enumerate(terminals)}
    pair_mask = [(1 << pos[p.s]) | (1 << pos[p.t]) for p in inst.pairs]
    oracle = opt._tree_oracle(g, terminals)
    best = best_blocks = None
    for partition in set_partitions(range(inst.k)):
        masks = []
        for block in partition:
            m = 0
            for i in block:
                m |= pair_mask[i]
            masks.append(m)
        weights = [oracle.weight(m) for m in masks]
        if None not in weights and (best is None or sum(weights) < best):
            best, best_blocks = sum(weights), masks
    if best is None:
        raise InputError("some pair is disconnected in the graph")
    edges = tuple(sorted(set().union(*(oracle.edges(m) for m in best_blocks))))
    tree = oracle.weight((1 << len(terminals)) - 1)
    scale = g.metric.scale
    return best_blocks, edges, F(best, scale), None if tree is None else F(tree, scale)


@st.composite
def small_forest_instances(draw):
    """Up to 5 pairs on up to 6 vertices: sparse edges leave pairs
    disconnected, few vertices make pairs share terminals, and weights in
    {0, 1/2, 1} make many partitions tie."""
    n = draw(st.integers(2, 6))
    slots = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=9))
    edges = [(u, v, F(draw(st.integers(0, 2)), 2)) for u, v in chosen]
    pairs = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=5))
    return make_instance(WeightedGraph(n, edges), pairs)


@given(small_forest_instances())
@settings(max_examples=300, deadline=None)
def test_forest_search_keeps_the_first_minimum_of_set_partitions(inst):
    """The search visits the partitions in `set_partitions`' order, so among
    tied optima it returns the same blocks and edges as enumeration."""
    try:
        expected = enumerated_optima(inst)
    except InputError:
        with pytest.raises(InputError, match="some pair is disconnected"):
            exact_optima(inst)
        return
    assert traced_exact_optima(inst)[0] == expected


def traced_exact_optima(inst):
    """`exact_optima(inst)` as (block masks read off `oracle.edges`, edge
    indices, weight, T*), the shape of `enumerated_optima`, and the number of
    `oracle.weight` reads the search made."""
    edge_reads, weight_reads = [], []
    tree_oracle = opt._tree_oracle

    def recording_oracle(g, terminals):
        oracle = tree_oracle(g, terminals)
        for name, log in (("edges", edge_reads), ("weight", weight_reads)):
            def recorded(mask, read=getattr(oracle, name), log=log):
                log.append(mask)
                return read(mask)

            setattr(oracle, name, recorded)
        return oracle

    with mock.patch.object(opt, "_tree_oracle", recording_oracle):
        forest, tstar = exact_optima(inst)
    return (edge_reads, forest.edge_indices, forest.weight, tstar), len(weight_reads)


def tie_heavy_instance(n, m, k, seed):
    """A random spanning tree on n vertices plus m - n + 1 more edges, each
    weight in {0, 1/2, 1}, and k pairs, each the ends of a random edge: the
    optima split into one to three blocks and tie often."""
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    chosen = tree + rng.sample(others, m - n + 1)
    edges = [(u, v, F(rng.randrange(3), 2)) for u, v in chosen]
    pairs = [rng.choice(chosen) for _ in range(k)]
    return make_instance(WeightedGraph(n, edges), pairs)


@pytest.mark.parametrize("k", (6, 7, 8))
@pytest.mark.parametrize("n,m", ((14, 13), (9, 12)), ids=("tree", "cyclic"))
def test_forest_search_cut_keeps_the_first_minimum_at_six_to_eight_pairs(n, m, k):
    """Past the hypothesis test's 5 pairs: the cut leaves the first strict
    minimum over `set_partitions` in place, ties included."""
    for seed in range(4):
        inst = tie_heavy_instance(n, m, k, seed)
        assert traced_exact_optima(inst)[0] == enumerated_optima(inst)


def test_forest_search_cut_skips_disconnected_blocks():
    # two components: a block across them is disconnected, and so is every
    # block it grows into, so there is no single tree (T* is None)
    left, right = tie_heavy_instance(5, 6, 4, seed=0), tie_heavy_instance(4, 3, 3, seed=1)
    edges = list(left.graph.edges) + [(u + 5, v + 5, w) for u, v, w in right.graph.edges]
    pairs = [(p.s, p.t) for p in left.pairs] + [(p.s + 5, p.t + 5) for p in right.pairs]
    inst = make_instance(WeightedGraph(9, edges), pairs)
    expected = enumerated_optima(inst)
    assert expected[3] is None
    assert traced_exact_optima(inst)[0] == expected
    across = make_instance(inst.graph, pairs + [(0, 8)])
    with pytest.raises(InputError, match="some pair is disconnected"):
        enumerated_optima(across)
    with pytest.raises(InputError, match="some pair is disconnected"):
        exact_optima(across)


@pytest.mark.parametrize("seed", range(4))
def test_forest_search_reads_fewer_weights_than_bell_8(seed):
    # scoring every leaf would read at least one weight for each of the
    # Bell(8) = 4,140 partitions of 8 pairs
    inst = gen_random_instance(400, 399, 8, seed)
    assert inst.k == 8
    assert traced_exact_optima(inst)[1] < 4140


def brute_force_forest(inst):
    g = inst.graph
    best = None
    for r in range(len(g.edges) + 1):
        for subset in itertools.combinations(range(len(g.edges)), r):
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for ei in subset:
                u, v, _ = g.edges[ei]
                parent[find(u)] = find(v)
            if all(find(p.s) == find(p.t) for p in inst.pairs):
                w = sum((g.edges[ei][2] for ei in subset), F(0))
                if best is None or w < best:
                    best = w
    return best


@given(st.integers(0, 200))
@settings(max_examples=12, deadline=None)
def test_partition_oracle_matches_edge_subset_oracle(seed):
    # m = 5 draws a tree (closed form), m = 9 a cyclic graph (subset DP)
    for m in (5, 9):
        inst = gen_random_instance(6, m, 3, seed=seed)
        assert steiner_forest_exact(inst).weight == brute_force_forest(inst)


@st.composite
def small_graph_and_terminals(draw):
    n = draw(st.integers(2, 7))
    slots = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    edges = [
        (u, v, F(draw(st.integers(0, 6)), draw(st.integers(1, 3)))) for u, v in chosen
    ]
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
    return WeightedGraph(n, edges), tuple(sorted(terminals))


@given(small_graph_and_terminals())
@settings(max_examples=40, deadline=None)
def test_steiner_table_matches_edge_subsets_on_every_mask(case):
    """Every nonempty mask, the first terminal's bit included: the tree joining
    the masked terminals is the forest of (first masked terminal, each other)."""
    g, terminals = case
    table = SteinerTable(g, terminals)
    for mask in range(1, 1 << len(terminals)):
        first, *rest = [t for i, t in enumerate(terminals) if mask >> i & 1]
        pairs = [(first, t) for t in rest]
        expected = brute_force_forest(make_instance(g, pairs))
        got = table.weight(mask)
        if expected is None:
            assert got is None
            continue
        assert F(got, g.metric.scale) == expected
        tree = WeightedGraph(g.n, [g.edges[ei] for ei in table.edges(mask)])
        assert sum((w for _, _, w in tree.edges), F(0)) == expected
        assert brute_force_forest(make_instance(tree, pairs)) == expected


# sha256 prefixes of serialize_solution for (forest optimum, tree optimum)
ORACLE_DIGESTS = {
    ("girth", "petersen"): ("1c9cf303acbc2af2", "31e6ea9ead3daa3b"),
    ("girth", "heawood"): ("24530a60c704d2cd", "8bb234ed8fe6e08c"),
    ("random", (400, 399, 8, 0)): ("ad32a2c89528f5bc", "accc47eacffc1ec9"),
    ("random", (400, 399, 8, 1)): ("f8f21b3aaba5c8eb", "f8f21b3aaba5c8eb"),
    ("random", (30, 60, 6, 1)): ("c0acc9f858fe329b", "ffe929ac5acbc6d5"),
    ("random", (30, 60, 7, 27)): ("73109bdc1613e9da", "73109bdc1613e9da"),
    ("random", (30, 60, 8, 8)): ("f46944d8e346b3db", "f46944d8e346b3db"),
    ("grid", 4): ("487f7fd27d7e0ead", "487f7fd27d7e0ead"),
}


def unit_grid_instance(n):
    """n x n unit grid, corner-to-corner and centre pairs: many tied optima."""
    edges = [(r * n + c, r * n + c + 1, F(1)) for r in range(n) for c in range(n - 1)]
    edges += [(r * n + c, (r + 1) * n + c, F(1)) for r in range(n - 1) for c in range(n)]
    last = n * n - 1
    return make_instance(
        WeightedGraph(n * n, edges), [(0, last), (n - 1, last - n + 1), (n + 1, last - n - 1)]
    )


@pytest.mark.parametrize("source", list(ORACLE_DIGESTS))
def test_oracle_edge_choice_is_pinned(source):
    """Cages, 10-terminal graphs and the grid take the subset DP, the
    400-vertex trees the closed form; each optimum must pick the same edges
    as it always has, ties included."""
    kind, arg = source
    make = {"girth": gen_girth_lower_bound, "grid": unit_grid_instance}.get(kind)
    inst = make(arg) if make else gen_random_instance(*arg)
    sols = (
        steiner_forest_exact(inst),
        tree_optimum(inst, cap_terminals=len(inst.terminals())),
    )
    digests = tuple(
        hashlib.sha256(serialize_solution(sol).encode()).hexdigest()[:16] for sol in sols
    )
    assert digests == ORACLE_DIGESTS[source]


def test_opt_weight_in_ball_whole_graph():
    g = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1))])
    inst = make_instance(g, [(0, 2)])
    sol = steiner_forest_exact(inst)
    assert opt_weight_in_ball(sol, g, 0, F(100)) == sol.weight
    assert opt_weight_in_ball(sol, g, 0, F(0)) == 0


def test_opt_weight_in_ball_matches_edge_filter():
    inst = gen_random_instance(8, 12, 3, seed=5)
    eta = default_eta(inst.graph)
    sub, _ = subdivide_edges(inst.graph, eta)
    sub_inst = make_instance(sub, [(p.s, p.t) for p in inst.pairs])
    sol = steiner_forest_exact(sub_inst)
    pair = inst.pairs[0]
    from greedysf.graph import distances_from

    radius = distances_from(inst.graph, pair.s)[pair.t] / 2
    ball = open_ball(sub, pair.s, radius)
    expected = sum(
        (
            sub.edges[ei][2]
            for ei in sol.edge_indices
            if sub.edges[ei][0] in ball and sub.edges[ei][1] in ball
        ),
        F(0),
    )
    assert opt_weight_in_ball(sol, sub, pair.s, radius) == expected


def test_opt_weight_in_ball_crossing_edge():
    g = WeightedGraph(2, [(0, 1, F(2))])
    inst = make_instance(g, [(0, 1)])
    sol = steiner_forest_exact(inst)
    with pytest.raises(InputError):
        opt_weight_in_ball(sol, g, 0, F(1))


def test_dual_lower_bound_empty():
    g = WeightedGraph(2, [(0, 1, F(3))])
    inst = make_instance(g, [(0, 1)])
    rep = dual_lower_bound_audit([], inst, MateMap(inst), F(3))
    assert rep.bound_holds and not rep.vacuous and rep.sum_radii == 0


def test_dual_lower_bound_strictness_violation():
    g = WeightedGraph(2, [(0, 1, F(3))])
    inst = make_instance(g, [(0, 1)])
    rep = dual_lower_bound_audit([(0, F(3))], inst, MateMap(inst), F(3))
    assert not rep.radii_below_mate_distance
    assert rep.vacuous


def test_dual_lower_bound_overlap_detected():
    g = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1))])
    inst = make_instance(g, [(0, 2), (1, 2)])
    rep = dual_lower_bound_audit(
        [(0, F(3, 2)), (1, F(3, 2))], inst, MateMap(inst), F(2)
    )
    assert not rep.balls_disjoint and rep.vacuous


def test_dual_lower_bound_flags_a_center_off_the_terminals():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(2))])
    inst = make_instance(g, [(0, 2)])
    rep = dual_lower_bound_audit([(1, F(1))], inst, MateMap(inst), F(4))
    assert not rep.centers_are_terminals and rep.vacuous and not rep.bound_holds
    assert rep.offenders == ("ball 0 center 1 is not a terminal",)


def test_serialize_solution():
    g = WeightedGraph(2, [(0, 1, F(5, 2))])
    inst = make_instance(g, [(0, 1)])
    sol = steiner_forest_exact(inst)
    assert serialize_solution(sol) == '{"edges":[[0,1]],"weight":"5/2"}'


def _scaled(inst, c):
    """The instance with every graph and schedule weight multiplied by c."""
    g = inst.graph
    return make_instance(
        WeightedGraph(g.n, [(u, v, w * c) for u, v, w in g.edges]),
        [(p.s, p.t) for p in inst.pairs],
        [[(u, v, w * c) for u, v, w in edges] for edges in inst.schedule],
    )


def _class_duals(inst):
    """(cost, collection, auxiliary graph) of every class of the rule-3 run,
    built on the instance's default-eta subdivision."""
    trace = run_greedy(inst, Rule.RULE3)
    sub = make_instance(
        subdivide_edges(inst.graph, default_eta(inst.graph))[0],
        [(p.s, p.t) for p in inst.pairs],
    )
    return [
        (cost, *build_class_duals(trace, sub, pair_ids))
        for cost, pair_ids in equal_cost_classes(trace)
    ]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_weight_scaling_scales_costs_and_keeps_choices(seed):
    # rational weights with zeros and ties, and reveals, on 9 vertices; the
    # runs, the optimum and the class duals compare weights only, so scaling
    # by c > 0 changes what they choose nowhere and multiplies what they cost
    # (and the dual radii) by c
    base = gen_random_instance(9, 14, 4, seed)
    rng = random.Random(seed)

    def weight():
        return F(rng.randint(0, 12), rng.randint(1, 4))

    slots = list(itertools.combinations(range(9), 2))
    inst = make_instance(
        WeightedGraph(9, [(u, v, weight()) for u, v, _ in base.graph.edges]),
        [(p.s, p.t) for p in base.pairs],
        [
            [(u, v, weight()) for u, v in rng.sample(slots, rng.randint(0, 2))]
            for _ in base.pairs
        ],
    )
    forest, tstar = exact_optima(inst)
    classes = _class_duals(inst)
    for c in (F(7, 3), F(1, 1000), F(97)):
        scaled = _scaled(inst, c)
        # eta scales with c, so the subdivisions number their chains alike
        # and the class duals place the same balls at c times the radius
        assert [
            (cost, coll.balls, coll.skipped, aux.edges, coll.radius)
            for cost, coll, aux in _class_duals(scaled)
        ] == [
            (cost * c, coll.balls, coll.skipped, aux.edges, coll.radius * c)
            for cost, coll, aux in classes
        ]
        for rule in (Rule.RULE1, Rule.RULE2, Rule.RULE3):
            t, tc = run_greedy(inst, rule), run_greedy(scaled, rule)
            assert tc.paths == t.paths
            assert tc.shortcuts_added == t.shortcuts_added
            assert tc.contraction == t.contraction
            assert tc.costs == [x * c for x in t.costs]
            assert tc.total_cost == t.total_cost * c
        assert scaled.pair_distances == tuple(
            None if d is None else d * c for d in inst.pair_distances
        )
        forest_c, tstar_c = exact_optima(scaled)
        assert forest_c.edge_indices == forest.edge_indices
        assert forest_c.edges == forest.edges
        assert forest_c.weight == forest.weight * c
        assert tstar_c == (None if tstar is None else tstar * c)


@pytest.mark.parametrize(
    "classes,per_class,seed",
    [
        (m, ppc, seed)
        for m, ppc in ((1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))
        for seed in (0, 1, 2)
    ],
)
def test_weight_scaling_keeps_the_balanced_dual(classes, per_class, seed):
    # the canonical clauses and every charge transfer compare ratios of
    # costs, so scaling by c > 0 keeps every ball, status, charge and event
    # and multiplies the radii and the charged totals by c; K admits lg+(K)
    # >= the class count
    K = max(classes * per_class, 2**classes)
    delta = 100 * (lg_plus(1) + lg_plus(lg_plus(K)))
    inst = gen_canonical_nested(classes, per_class, delta, seed)
    assert_scaling_keeps_the_balanced_dual(
        inst, lambda trace, g: build_balanced(trace, g, K, delta, 1), delta
    )


def assert_scaling_keeps_the_balanced_dual(inst, build, delta):
    """Scaling every weight by c > 0 keeps every ball, status, charge and event
    of `build(trace, instance)`, and multiplies the radii and the charged
    totals by c; returns the unscaled dual."""
    bd = build(run_greedy(inst, Rule.RULE3), inst)

    def totals(dual):
        # the writer stamps each step with the charged total
        return [parse_fraction(e["charged_total"]) for e in balanced_to_obj(dual)["step_log"]]

    for c in (F(7, 3), F(1, 1000), F(97)):
        scaled = _scaled(inst, c)
        trace_c = run_greedy(scaled, Rule.RULE3)
        bd_c = build(trace_c, scaled)
        assert [(b.class_index, b.center, b.owner_pair) for b in bd_c.balls] == [
            (b.class_index, b.center, b.owner_pair) for b in bd.balls
        ]
        assert [b.radius for b in bd_c.balls] == [b.radius * c for b in bd.balls]
        assert bd_c.classes == tuple(
            ClassInfo(cls.index, cls.cost * c, cls.pair_ids) for cls in bd.classes
        )
        assert [cls.radius_full for cls in bd_c.classes] == [
            cls.radius_full * c for cls in bd.classes
        ]
        assert bd_c.statuses == bd.statuses and bd_c.dangerous == bd.dangerous
        assert bd_c.charges == bd.charges
        assert bd_c.step_log == bd.step_log
        assert totals(bd_c) == [total * c for total in totals(bd)]
        assert verify_balanced(bd_c, trace_c, scaled, delta).all_ok
    return bd
