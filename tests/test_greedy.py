import dataclasses
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from greedysf.errors import InputError, RunError
from greedysf.graph import Metric, WeightedGraph, distances_from
from greedysf.greedy import (
    Rule,
    apply_contraction_rule,
    compare_rules,
    equal_cost_classes,
    pairs_below_contraction,
    run_greedy,
    serialize_trace,
    trace_to_obj,
)
from greedysf.balanced import trace_classes
from greedysf.canonical import canonical_report
from greedysf.instances import (
    CAGES,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
    parse_instance,
    serialize_instance,
)

F = Fraction


def test_rules_on_unit_path():
    g = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1))])
    inst = make_instance(g, [(0, 2)])
    for rule, expected in [
        (Rule.RULE1, [(0, 1), (1, 2)]),
        (Rule.RULE2, [(0, 2)]),
        (Rule.RULE3, [(0, 2)]),
    ]:
        trace = run_greedy(inst, rule)
        assert trace.costs == [F(2)]
        assert trace.paths == [(0, 1, 2)]
        assert trace.shortcuts_added == [expected]


def test_apply_rule_examples():
    path = (0, 9, 4, 7, 1)
    assert apply_contraction_rule(Rule.RULE2, path, {0, 1}) == [(0, 1)]
    # only vertex 4 arrived previously
    assert apply_contraction_rule(Rule.RULE3, path, {0, 1, 4}) == [(0, 4), (4, 1)]
    assert apply_contraction_rule(Rule.RULE1, path, set()) == [
        (0, 9),
        (9, 4),
        (4, 7),
        (7, 1),
    ]


@pytest.mark.parametrize("rule", list(Rule))
def test_girth_instance_costs(rule):
    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, rule)
    assert all(c == F(5, 2) for c in trace.costs)
    assert all(c == 1 for c in trace.contraction)


def test_identical_traces_across_rules_on_cages():
    for cage in ("petersen", "heawood"):
        inst = gen_girth_lower_bound(cage)
        traces = [run_greedy(inst, rule) for rule in Rule]
        first = traces[0]
        for other in traces[1:]:
            assert other.paths == first.paths
            assert other.costs == first.costs
            assert other.shortcuts_added == first.shortcuts_added


def test_canonical_costs_match_schedule():
    inst = gen_canonical_nested(2, 3, delta=20, seed=4)
    trace = run_greedy(inst, Rule.RULE3)
    for i, edges in enumerate(inst.schedule):
        assert trace.costs[i] == edges[0][2]
    assert all(c == 1 for c in trace.contraction)


def test_unreachable_pair_raises():
    g = WeightedGraph(4, [(0, 1, F(1))])
    inst = make_instance(g, [(0, 3)])
    with pytest.raises(RunError):
        run_greedy(inst, Rule.RULE1)


def test_contraction_examples():
    g = WeightedGraph(4, [(0, 1, F(5)), (1, 2, F(5)), (0, 2, F(4)), (2, 3, F(1))])
    inst = make_instance(g, [(0, 1), (0, 2), (1, 2)])
    trace = run_greedy(inst, Rule.RULE2)
    # first pair of an empty-schedule instance reuses nothing
    assert trace.contraction[0] == 1
    assert trace.costs[2] == 0  # connected via the two previous shortcuts
    assert trace.contraction[2] is None  # infinite


def test_zero_distance_pair_literal_rules():
    g = WeightedGraph(3, [(0, 1, F(0)), (1, 2, F(0))])
    inst = make_instance(g, [(0, 2)])
    trace = run_greedy(inst, Rule.RULE1)
    assert trace.costs == [F(0)]
    assert trace.shortcuts_added == [[(0, 1), (1, 2)]]
    assert trace.contraction == [None]


def test_pairs_below_contraction():
    inst = gen_girth_lower_bound("heawood")
    trace = run_greedy(inst, Rule.RULE1)
    assert pairs_below_contraction(trace, F(1)) == set()
    assert pairs_below_contraction(trace, F(2)) == set(range(inst.k))
    assert pairs_below_contraction(trace, F(10**9)) == set(range(inst.k))
    with pytest.raises(InputError):
        pairs_below_contraction(trace, F(1, 2))


def _trace_with_costs(costs):
    # a star of schedule-announced pairs so the engine pays prescribed costs
    n = 2 * len(costs)
    edges = [(2 * i, 2 * i + 1, F(c)) for i, c in enumerate(costs)]
    g = WeightedGraph(n, edges)
    pairs = [(2 * i, 2 * i + 1) for i in range(len(costs))]
    inst = make_instance(g, pairs)
    return run_greedy(inst, Rule.RULE3)


def test_partition_canonical_spacing():
    inst = gen_canonical_nested(3, 2, delta=20, seed=1)
    trace = run_greedy(inst, Rule.RULE3)
    assert canonical_report(inst, trace, 1, 20).costs_on_separated_grid


def test_partition_errors():
    g = WeightedGraph(2, [(0, 1, F(0))])
    inst = make_instance(g, [(0, 1)])
    trace = run_greedy(inst, Rule.RULE1)
    assert equal_cost_classes(trace) == []
    with pytest.raises(InputError):
        trace_classes(trace)


def test_equal_cost_classes():
    trace = _trace_with_costs([8, 2, 8])
    groups = equal_cost_classes(trace)
    assert groups[0] == (F(8), [0, 2])
    assert groups[1] == (F(2), [1])


@st.composite
def small_instances(draw):
    n = draw(st.integers(4, 8))
    m = draw(st.integers(n - 1, min(n + 4, n * (n - 1) // 2)))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return gen_random_instance(n, m, k, seed)


@given(small_instances(), st.sampled_from(list(Rule)))
@settings(max_examples=30, deadline=None)
def test_cost_metric_consistency(inst, rule):
    """Replaying the metric reconstructs every traced cost exactly."""
    trace = run_greedy(inst, rule)
    metric = Metric(
        inst.graph.n, inst.graph.edges, (w for step in inst.schedule for _, _, w in step)
    )
    prev = set()
    for i, pair in enumerate(inst.pairs):
        for u, v, w in inst.schedule[i]:
            metric.add_edge(u, v, w)
        d = metric.shortest(pair.s, pair.t).distance
        assert d == trace.costs[i]
        for u, v in trace.shortcuts_added[i]:
            metric.add_edge(u, v, F(0))
        prev.update((pair.s, pair.t))


def _fraction_shortest(adj, s, t):
    """Dijkstra on Fraction weights with the (distance, id) order and the
    smallest-settled-predecessor tie-break; None, None if t is unreachable."""
    dist, pred, done = {s: F(0)}, {}, set()
    heap = [(F(0), s)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == t:
            break
        for v, w in adj[u]:
            if v in done:
                continue
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v], pred[v] = nd, u
                heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u
    if t not in done:
        return None, None
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    return dist[t], tuple(reversed(path))


def _fraction_greedy(inst, rule):
    """Reference run over a Fraction-weight adjacency, independent of graph.Metric."""
    adj = [[] for _ in range(inst.graph.n)]

    def add(u, v, w):
        adj[u].append((v, w))
        adj[v].append((u, w))

    for u, v, w in inst.graph.edges:
        add(u, v, w)
    prev, paths, costs = set(), [], []
    for i, pair in enumerate(inst.pairs):
        for u, v, w in inst.schedule[i]:
            add(u, v, w)
        cost, path = _fraction_shortest(adj, pair.s, pair.t)
        for u, v in apply_contraction_rule(rule, path, prev | {pair.s, pair.t}):
            add(u, v, F(0))
        prev.update((pair.s, pair.t))
        paths.append(path)
        costs.append(cost)
    return paths, costs


@st.composite
def rational_reveal_instances(draw):
    base = draw(small_instances())
    n = base.graph.n
    den = st.integers(1, 16)
    edges = [(u, v, w / draw(den)) for u, v, w in base.graph.edges]
    schedule = []
    for _ in base.pairs:
        step = []
        for _ in range(draw(st.integers(0, 2))):
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
            b = draw(den)
            step.append((u, v, F(draw(st.integers(0, 100 * b)), b)))
        schedule.append(step)
    pairs = [(p.s, p.t) for p in base.pairs]
    return make_instance(WeightedGraph(n, edges), pairs, schedule)


@given(rational_reveal_instances(), st.sampled_from(list(Rule)))
@settings(max_examples=60, deadline=None)
def test_rational_reveals_match_fraction_reference(inst, rule):
    """The integer metric routes exactly as Dijkstra over Fraction weights."""
    trace = run_greedy(inst, rule)
    paths, costs = _fraction_greedy(inst, rule)
    assert trace.paths == paths
    assert trace.costs == costs


def test_metric_rejects_off_scale_weight():
    metric = Metric(3, ((0, 1, F(1, 2)), (1, 2, F(1, 3))), (F(5, 4),))
    assert metric.scale == 12
    metric.add_edge(0, 2, F(7, 4))
    assert metric.shortest(0, 2).distance == F(5, 6)
    with pytest.raises(InputError):
        metric.add_edge(0, 2, F(1, 5))
    assert metric.adj[0] == [(1, 6, 0), (2, 21, -1)]


@given(small_instances(), st.sampled_from(list(Rule)))
@settings(max_examples=30, deadline=None)
def test_contraction_at_least_one(inst, rule):
    trace = run_greedy(inst, rule)
    for c in trace.contraction:
        assert c is None or c >= 1


@given(small_instances())
@settings(max_examples=20, deadline=None)
def test_rule_shortcut_richness(inst):
    """With identical history, rule 2 shortcuts contract the least, rule 1 the most."""
    trace = run_greedy(inst, Rule.RULE3)
    prev = set()
    for i, pair in enumerate(inst.pairs):
        path = trace.paths[i]
        keep = prev | {pair.s, pair.t}
        variants = {
            rule: WeightedGraph(
                inst.graph.n,
                [*inst.graph.edges,
                 *((u, v, F(0)) for u, v in apply_contraction_rule(rule, path, keep))],
            )
            for rule in Rule
        }
        for s in range(inst.graph.n):
            d1 = distances_from(variants[Rule.RULE1], s)
            d2 = distances_from(variants[Rule.RULE2], s)
            d3 = distances_from(variants[Rule.RULE3], s)
            for v in range(inst.graph.n):
                if d2[v] is not None:
                    assert d3[v] <= d2[v]
                if d3[v] is not None:
                    assert d1[v] <= d3[v]
        prev.update((pair.s, pair.t))


def test_shortcut_sets_non_decreasing():
    inst = gen_random_instance(8, 12, 4, seed=9)
    trace = run_greedy(inst, Rule.RULE1)
    assert len(trace.shortcuts_added) == inst.k
    cumulative = [set()]
    for added in trace.shortcuts_added:
        cumulative.append(cumulative[-1] | set(added))
    for before, after in zip(cumulative, cumulative[1:]):
        assert before <= after
    assert cumulative[0] == set()


def test_compare_rules_logs_totals():
    inst = gen_random_instance(8, 12, 4, seed=11)
    totals = compare_rules(inst)
    assert set(totals) == {"rule1", "rule2", "rule3"}
    assert all(v >= 0 for v in totals.values())


def test_trace_serialization_shape():
    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, Rule.RULE3)
    obj = trace_to_obj(trace)
    assert obj["rule"] == "rule3"
    assert obj["total"] == "15/2"
    assert obj["pairs"][0]["cost"] == "5/2"
    assert obj["pairs"][0]["contraction"] == "1/1"
    serialize_trace(trace)  # must not raise


def test_trace_parse_roundtrip():
    # `--trace` files are checked by equality with the recomputed run, so a
    # parsed trace must equal the run it was written from in every field
    from greedysf.greedy import parse_trace

    corpus = [gen_random_instance(8, 12, 4, seed=21)]
    corpus += [
        gen_random_instance(7 + s % 4, 10 + s % 3, 1 + s % 5, seed=s) for s in range(30)
    ]
    corpus += [gen_girth_lower_bound(cage) for cage in CAGES]
    corpus.append(gen_canonical_nested(2, 2, 20, seed=1))
    for inst in corpus:
        for rule in Rule:
            trace = run_greedy(inst, rule)
            assert parse_trace(serialize_trace(trace)) == trace


def test_pair_distances_checks_both_endpoints():
    g = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(2))])
    assert make_instance(g, [(0, 2)]).pair_distances == (F(3),)
    for pair in ((0, -1), (0, 3), (-1, 0), (3, 0)):
        with pytest.raises(InputError):
            make_instance(g, [pair]).pair_distances


def test_rules_share_their_pair_distance_searches(monkeypatch):
    from greedysf import graph

    inst = gen_random_instance(70, 280, 18, 0)
    calls = []
    search = graph._dijkstra

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graph, "_dijkstra", counting)
    compare_rules(inst)
    # 54 routing searches (18 per rule) and the 13 distinct sources' searches
    # once: the rules read one set of pair distances
    assert len({p.s for p in inst.pairs}) == 13
    assert len(calls) == 67


def test_pair_distance_cache_is_invisible():
    inst = gen_random_instance(12, 20, 4, 3)
    text = serialize_instance(inst)
    run_greedy(inst, Rule.RULE3)
    twin = parse_instance(text)
    assert "pair_distances" in vars(inst) and "pair_distances" not in vars(twin)
    assert "pair_distances" not in vars(dataclasses.replace(inst))
    assert inst == twin and hash(inst) == hash(twin)
    assert repr(inst) == repr(twin)
    assert serialize_instance(inst) == text == serialize_instance(twin)
    assert inst.digest() == twin.digest()
    assert type(inst.pair_distances) is tuple
    assert inst.pair_distances is inst.pair_distances
    assert twin.pair_distances == inst.pair_distances
    # a bad vertex raises on every read and leaves nothing cached
    bad = make_instance(inst.graph, [(0, inst.graph.n)])
    for _ in range(2):
        with pytest.raises(InputError):
            bad.pair_distances
        assert "pair_distances" not in vars(bad)


def test_target_search_stops_at_the_mates(monkeypatch):
    from greedysf import graph

    unit_path = WeightedGraph(1001, [(i, i + 1, F(1)) for i in range(1000)])
    inst = make_instance(unit_path, [(0, 1)])
    settled = []
    search = graph._dijkstra

    def recording(*args, **kwargs):
        out = search(*args, **kwargs)
        settled.append(sum(out[2]))
        return out

    monkeypatch.setattr(graph, "_dijkstra", recording)
    assert inst.pair_distances == (F(1),)
    assert len(settled) == 1 and settled[0] <= 2
