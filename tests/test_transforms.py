from fractions import Fraction

import pytest

from greedysf.errors import InputError
from greedysf.exact import pow2
from greedysf.graph import Distances, WeightedGraph, distances_from
from greedysf.greedy import Rule, run_greedy
from greedysf.instances import (
    MateMap,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
)
from greedysf.canonical import canonical_report
from greedysf.balanced import (
    DualBall,
    ball_neighborhood,
    neighborhood_reach,
    trace_classes,
)
from greedysf.opt import steiner_forest_exact, opt_weight_in_ball
from greedysf.transforms import (
    augment_subdivided_solution,
    extract_sub_instance,
    forest_potential,
    subdivide_pairs_rule3,
    to_canonical,
)

F = Fraction


def random_corpus(count, k_max=5, start=0):
    for seed in range(start, start + count):
        n = 7 + seed % 4
        m = n + 2 + seed % 3
        k = 1 + seed % k_max
        yield gen_random_instance(n, m, k, seed=seed)


# -- canonicalization -----------------------------------------------------------

def test_to_canonical_residue_grouping():
    # costs 16, 8, 4, 2: exponents 4..1; grid spacing 11 separates them all,
    # so the kept group is the single most expensive pair
    g = WeightedGraph(
        8, [(0, 1, F(16)), (2, 3, F(8)), (4, 5, F(4)), (6, 7, F(2))]
    )
    inst = make_instance(g, [(0, 1), (2, 3), (4, 5), (6, 7)])
    trace = run_greedy(inst, Rule.RULE3)
    out, receipt = to_canonical(inst, trace, alpha=F(2), delta=1)
    assert receipt.measured["residue"] == 4
    assert out.k == 1 and out.schedule[0][0][2] == 16
    kept = F(*map(int, receipt.measured["kept_rounded_cost"].split("/")))
    total = F(*map(int, receipt.measured["rounded_low_contraction_cost"].split("/")))
    assert kept >= total / (2 * (1 + 10))
    # the pigeonhole arithmetic with two residue groups: exponents 4,3,2,1
    # mod 2 split {4,2} vs {3,1}; the larger group carries at least half
    exps = [4, 3, 2, 1]
    kept2 = sum(pow2(e) for e in exps if e % 2 == 0)
    assert kept2 >= sum(pow2(e) for e in exps) / 2


def test_to_canonical_replay_and_separation():
    for inst in random_corpus(10, k_max=5):
        trace = run_greedy(inst, Rule.RULE3)
        alpha, delta = F(2), 300
        try:
            out, receipt = to_canonical(inst, trace, alpha, delta)
        except InputError:
            continue  # no pair below alpha (cannot happen: first pair has contraction 1)
        replay = run_greedy(out, Rule.RULE3)
        # greedy pays exactly the injected edge weight per kept pair
        for new_i, (old_i, _, _, rounded) in enumerate(receipt.pair_map):
            num, den = map(int, rounded.split("/"))
            assert replay.costs[new_i] == F(num, den)
        assert receipt.measured["replay_matches_rounded"] is True
        # output is canonical at doubled contraction budget
        report = canonical_report(out, replay, 2 * alpha, delta)
        assert report.is_canonical, report.offenders
        # kept group carries at least 1/(2*(delta+10)) of the rounded total
        kept = F(*map(int, receipt.measured["kept_rounded_cost"].split("/")))
        rounded_total = F(
            *map(int, receipt.measured["rounded_low_contraction_cost"].split("/"))
        )
        assert kept >= rounded_total / (2 * (delta + 10))


def test_to_canonical_opt_never_grows():
    for inst in random_corpus(8, k_max=4, start=50):
        trace = run_greedy(inst, Rule.RULE3)
        out, _ = to_canonical(inst, trace, F(2), 300)
        assert steiner_forest_exact(out).weight <= steiner_forest_exact(inst).weight


def test_to_canonical_fixed_point_on_canonical_input():
    # power-of-two costs round to themselves; the kept group replays exactly
    inst = gen_canonical_nested(1, 3, delta=20, seed=6)
    trace = run_greedy(inst, Rule.RULE3)
    out, receipt = to_canonical(inst, trace, F(2), delta=20)
    replay = run_greedy(out, Rule.RULE3)
    assert replay.costs == [trace.costs[old_i] for old_i, *_ in receipt.pair_map]


def test_to_canonical_errors_when_nothing_below_alpha():
    g = WeightedGraph(2, [(0, 1, F(4))])
    inst = make_instance(g, [(0, 1)])
    trace = run_greedy(inst, Rule.RULE1)
    with pytest.raises(InputError):
        to_canonical(inst, trace, F(1), 300)  # contraction 1 is not < 1


# -- pair subdivision ------------------------------------------------------------

def test_subdivide_first_pair_is_identity():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(2))])
    inst = make_instance(g, [(0, 2)])
    trace = run_greedy(inst, Rule.RULE3)
    out, receipt = subdivide_pairs_rule3(inst, trace)
    assert [(p.s, p.t) for p in out.pairs] == [(0, 2)]


def test_subdivide_identity_on_girth_instance():
    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, Rule.RULE3)
    out, receipt = subdivide_pairs_rule3(inst, trace)
    assert [(p.s, p.t) for p in out.pairs] == [(p.s, p.t) for p in inst.pairs]
    assert run_greedy(out, Rule.RULE3).total_cost == trace.total_cost


def test_subdivide_requires_rule3_and_empty_schedule():
    inst = gen_girth_lower_bound("petersen")
    trace1 = run_greedy(inst, Rule.RULE1)
    with pytest.raises(InputError):
        subdivide_pairs_rule3(inst, trace1)
    canon = gen_canonical_nested(1, 2, 20, seed=0)
    trace = run_greedy(canon, Rule.RULE3)
    with pytest.raises(InputError):
        subdivide_pairs_rule3(canon, trace)


def test_subdivide_contracted_metrics_coincide():
    """After each parent pair, both runs induce the same terminal metric."""
    from greedysf.graph import Metric

    for inst in random_corpus(8, k_max=4, start=400):
        trace = run_greedy(inst, Rule.RULE3)
        split, receipt = subdivide_pairs_rule3(inst, trace)
        split_trace = run_greedy(split, Rule.RULE3)
        terminals = sorted(inst.terminals())
        original = Metric(inst.graph.n, inst.graph.edges, ())
        mirrored = Metric(split.graph.n, split.graph.edges, ())
        for parent, children in receipt.pair_map:
            for u, v in trace.shortcuts_added[parent]:
                original.add_edge(u, v, F(0))
            for child in children:
                for u, v in split_trace.shortcuts_added[child]:
                    mirrored.add_edge(u, v, F(0))
            for s in terminals:
                for t in terminals:
                    if s < t:
                        d_orig = original.shortest(s, t).distance
                        d_split = mirrored.shortest(s, t).distance
                        assert d_orig == d_split


def reference_subdivide(inst, trace):
    """The split by replay: one search per hop in the metric at its arrival."""
    from greedysf.exact import format_fraction
    from greedysf.graph import Metric
    from greedysf.transforms import TransformReceipt

    metric = Metric(inst.graph.n, inst.graph.edges, ())
    prev_terminals = set()
    new_pairs, pair_map = [], []
    for i, pair in enumerate(inst.pairs):
        ends = prev_terminals | {pair.s, pair.t}
        kept = [v for v in trace.paths[i] if v in ends]
        children = []
        for a, b in zip(kept, kept[1:]):
            d = metric.shortest(a, b).distance
            if d is None or d > 0:
                children.append(len(new_pairs))
                new_pairs.append((a, b))
        pair_map.append((i, tuple(children)))
        for u, v in trace.shortcuts_added[i]:
            metric.add_edge(u, v, F(0))
        prev_terminals.update((pair.s, pair.t))
    out = make_instance(inst.graph, new_pairs)
    return out, TransformReceipt(
        kind="subdivide_rule3",
        source_digest=inst.digest(),
        target_digest=out.digest(),
        pair_map=tuple(pair_map),
        measured={
            "k": inst.k,
            "k_new": len(new_pairs),
            "total": format_fraction(trace.total_cost),
        },
    )


def with_zero_edges(inst, every):
    """The instance with every `every`-th base edge made free."""
    edges = [
        (u, v, F(0) if j % every == 0 else w)
        for j, (u, v, w) in enumerate(inst.graph.edges)
    ]
    return make_instance(
        WeightedGraph(inst.graph.n, edges), [(p.s, p.t) for p in inst.pairs]
    )


def test_subdivide_matches_the_replay():
    petersen = gen_girth_lower_bound("petersen")
    pairs = [(p.s, p.t) for p in petersen.pairs]
    # the first pair again arrives at zero cost: its one hop is dropped
    repeated = make_instance(petersen.graph, pairs + pairs[:1])
    corpus = [petersen, repeated, *random_corpus(30, k_max=5, start=100)]
    corpus += [
        with_zero_edges(inst, 2 + j % 2)
        for j, inst in enumerate(random_corpus(20, k_max=6, start=500))
    ]
    dropped = 0
    for inst in corpus:
        trace = run_greedy(inst, Rule.RULE3)
        out, receipt = subdivide_pairs_rule3(inst, trace)
        assert (out, receipt) == reference_subdivide(inst, trace)
        dropped += sum(map(len, trace.shortcuts_added)) - out.k
    assert dropped > 1  # zero-distance hops occur and are dropped


def test_subdivide_runs_no_search(monkeypatch):
    from greedysf import graph

    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, Rule.RULE3)
    calls = []
    search = graph._dijkstra

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graph, "_dijkstra", counting)
    subdivide_pairs_rule3(inst, trace)
    assert calls == []


def test_subdivide_refuses_a_trace_of_another_pair_count():
    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, Rule.RULE3)
    fewer = make_instance(inst.graph, [(p.s, p.t) for p in inst.pairs[:-1]])
    more = make_instance(inst.graph, [(p.s, p.t) for p in inst.pairs] + [(0, 1)])
    for other in (fewer, more):
        with pytest.raises(InputError, match="pairs"):
            subdivide_pairs_rule3(other, trace)


def test_subdivide_random_corpus_properties():
    for inst in random_corpus(30, k_max=5, start=100):
        trace = run_greedy(inst, Rule.RULE3)
        out, receipt = subdivide_pairs_rule3(inst, trace)
        replay = run_greedy(out, Rule.RULE3)
        assert replay.total_cost == trace.total_cost
        assert all(c == 1 for c in replay.contraction)
        assert out.k <= 2 * inst.k**2
        assert out.terminals() == inst.terminals()
        # per-parent cost sums match
        for parent, children in receipt.pair_map:
            assert sum(
                (replay.costs[c] for c in children), F(0)
            ) == trace.costs[parent]


# -- ball sub-instances -----------------------------------------------------------

def nested_host_ball(inst, trace, K):
    classes = trace_classes(trace)
    cls1 = classes[0]
    for pid in cls1.pair_ids:
        ball = DualBall(
            class_index=1,
            center=inst.pairs[pid].s,
            radius=cls1.radius_full / 2,
            owner_pair=pid,
        )
        dist = Distances(inst.graph, ball.center, neighborhood_reach(ball.radius, K))
        if ball_neighborhood(inst, ball, K, classes, dist).interior:
            return ball, classes
    raise AssertionError("no host ball found")


def test_extract_sub_instance_empty_when_no_deferred():
    inst = gen_canonical_nested(2, 2, 200, seed=3)
    trace = run_greedy(inst, Rule.RULE3)
    ball, _ = nested_host_ball(inst, trace, inst.k)
    out, receipt, _ = extract_sub_instance(inst, trace, ball, set(), inst.k)
    assert out.k == 0


def test_extract_sub_instance_searches_once(monkeypatch):
    from greedysf import graph

    inst = gen_canonical_nested(2, 2, 200, seed=3)
    trace = run_greedy(inst, Rule.RULE3)
    ball, classes = nested_host_ball(inst, trace, inst.k)
    dist = Distances(inst.graph, ball.center, neighborhood_reach(ball.radius, inst.k))
    deferred = set(ball_neighborhood(inst, ball, inst.k, classes, dist).interior)
    sources = []
    ball_search, full_search = graph._ball_search, graph._dijkstra

    def ball_counting(adj, source, bound):
        sources.append(source)
        return ball_search(adj, source, bound)

    def full_counting(n, adj, source, *args):
        sources.append(source)
        return full_search(n, adj, source, *args)

    monkeypatch.setattr(graph, "_ball_search", ball_counting)
    monkeypatch.setattr(graph, "_dijkstra", full_counting)
    extract_sub_instance(inst, trace, ball, deferred, inst.k)
    # one search to the neighborhood's reach answers the cut as well
    assert sources == [ball.center]


def test_extract_sub_instance_rejects_escaping_schedule_edge():
    # pair {1,2} sits deep inside the radius-10 ball around 0, but its
    # schedule edge reaches vertex 3 far outside: a canonicity violation
    g = WeightedGraph(
        5,
        [(0, 1, F(1)), (1, 2, F(1)), (0, 4, F(10)), (4, 3, F(10)), (3, 2, F(30))],
    )
    inst = make_instance(g, [(0, 3), (1, 2)], [[(0, 3, F(20))], [(1, 3, F(5))]])
    trace = run_greedy(inst, Rule.RULE3)
    ball = DualBall(class_index=1, center=0, radius=F(10), owner_pair=0)
    with pytest.raises(InputError):
        extract_sub_instance(inst, trace, ball, {1}, K=2)


def test_extract_sub_instance_replays_costs_and_bounds_opt():
    inst = gen_canonical_nested(2, 2, 200, seed=3)
    trace = run_greedy(inst, Rule.RULE3)
    ball, classes = nested_host_ball(inst, trace, inst.k)
    dist = Distances(inst.graph, ball.center, neighborhood_reach(ball.radius, inst.k))
    deferred = set(ball_neighborhood(inst, ball, inst.k, classes, dist).interior)
    out, receipt, remap = extract_sub_instance(inst, trace, ball, deferred, inst.k)
    assert out.k == len(deferred)
    replay = run_greedy(out, Rule.RULE3)
    for new_i, item in enumerate(receipt.pair_map):
        old_i = item[0]
        assert replay.costs[new_i] == trace.costs[old_i]
    # the split-off optimum never beats the parent's mass inside the ball
    parent_opt = steiner_forest_exact(inst)
    inside = opt_weight_in_ball(parent_opt, inst.graph, ball.center, ball.radius)
    assert steiner_forest_exact(out).weight <= inside


# -- width and potential ------------------------------------------------------------

def test_tree_width_examples():
    # the potential of a one-tree forest is the tree's weight plus its width
    g = WeightedGraph(4, [(0, 1, F(7)), (2, 3, F(1))])
    inst = make_instance(g, [(0, 1)])
    assert forest_potential([0], inst) == 7 + 7
    assert forest_potential([1], inst) == 1 + 0  # no terminal inside


def test_tree_width_matches_brute_force():
    inst = gen_random_instance(8, 11, 4, seed=17)
    sol = steiner_forest_exact(inst)
    dists = [distances_from(inst.graph, p.s)[p.t] for p in inst.pairs]

    # group the solution edges into components
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ei in sol.edge_indices:
        u, v, _ = inst.graph.edges[ei]
        parent[find(u)] = find(v)
    by_root = {}
    for ei in sol.edge_indices:
        u, _, _ = inst.graph.edges[ei]
        by_root.setdefault(find(u), []).append(ei)
    for root, edges in by_root.items():
        vertices = {
            v for ei in edges for v in inst.graph.edges[ei][:2]
        }
        expected = max(
            (
                dists[i]
                for i, p in enumerate(inst.pairs)
                if p.s in vertices or p.t in vertices
            ),
            default=F(0),
        )
        weight = sum((inst.graph.edges[ei][2] for ei in edges), F(0))
        # one component alone: its potential is its weight plus its width
        assert forest_potential(edges, inst) == weight + expected


def test_forest_potential_examples():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(3))])
    inst = make_instance(g, [(0, 2)])
    mates = MateMap(inst)
    assert forest_potential([], inst) == 0
    # a single shortest-path tree for one pair: width equals weight
    assert forest_potential([0, 1], inst) == 10
    cyc = WeightedGraph(3, [(0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1))])
    inst2 = make_instance(cyc, [(0, 2)])
    with pytest.raises(InputError):
        forest_potential([0, 1, 2], inst2)


def test_forest_potential_sandwich_on_corpus():
    for inst in random_corpus(10, k_max=4, start=200):
        sol = steiner_forest_exact(inst)
        mates = MateMap(inst)
        phi = forest_potential(sol.edge_indices, inst)
        assert sol.weight <= phi <= 2 * sol.weight


# -- solution augmentation ------------------------------------------------------------

def sort_by_distance(inst):
    dists = [
        (distances_from(inst.graph, p.s)[p.t], i) for i, p in enumerate(inst.pairs)
    ]
    order = [i for _, i in sorted(dists, key=lambda t: (-t[0], t[1]))]
    return make_instance(inst.graph, [(inst.pairs[i].s, inst.pairs[i].t) for i in order])


def test_augment_no_additions_when_optimum_suffices():
    g = WeightedGraph(3, [(0, 1, F(2)), (1, 2, F(2))])
    inst = make_instance(g, [(0, 2)])
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    opt = steiner_forest_exact(inst)
    forest, log = augment_subdivided_solution(
        opt.edge_indices, inst, trace, split, receipt
    )
    assert forest == set(opt.edge_indices)
    assert log["initial_potential"] == log["final_potential"]


def test_augment_girth_instance():
    inst = gen_girth_lower_bound("petersen")  # equal costs: trivially monotone
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    opt = steiner_forest_exact(inst)
    forest, log = augment_subdivided_solution(
        opt.edge_indices, inst, trace, split, receipt
    )
    weight = sum((inst.graph.edges[ei][2] for ei in forest), F(0))
    assert weight <= 2 * opt.weight
    assert all(step["non_increasing"] for step in log["steps"])


def test_augment_computes_pair_distances_once(monkeypatch):
    from greedysf import graph

    inst = gen_girth_lower_bound("petersen")
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    opt = steiner_forest_exact(inst)
    fresh = gen_girth_lower_bound("petersen")
    assert fresh == inst
    calls = []
    search = graph._dijkstra

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graph, "_dijkstra", counting)
    # an equal instance the run never saw has no distances of its own yet:
    # one search per distinct pair source, plus one path per sub-pair added;
    # the potential after each of the k arrivals reuses the same distances
    forest, log = augment_subdivided_solution(
        opt.edge_indices, fresh, trace, split, receipt
    )
    added = sum(len(step["added_for"]) for step in log["steps"])
    assert len(calls) == len({p.s for p in inst.pairs}) + added
    assert len(calls) < 15
    # the instance the run used already holds its distances: only the paths
    calls.clear()
    assert augment_subdivided_solution(
        opt.edge_indices, inst, trace, split, receipt
    ) == (forest, log)
    assert len(calls) == added


@pytest.mark.parametrize("cage", ["petersen", "heawood"])
def test_augment_reuses_an_unchanged_potential(monkeypatch, cage):
    from greedysf import transforms

    inst = gen_girth_lower_bound(cage)
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    opt = steiner_forest_exact(inst)
    calls = []
    potential = transforms._forest_potential

    def counting(*args):
        calls.append(args)
        return potential(*args)

    monkeypatch.setattr(transforms, "_forest_potential", counting)
    forest, log = augment_subdivided_solution(
        opt.edge_indices, inst, trace, split, receipt
    )
    # no arrival adds an edge, so the initial potential is the only one computed
    assert all(not step["added_for"] for step in log["steps"])
    assert len(calls) == 1
    assert forest == set(opt.edge_indices)
    initial = log["initial_potential"]
    assert [step["potential"] for step in log["steps"]] == [initial] * inst.k
    assert log["final_potential"] == initial


def test_augment_monotone_corpus():
    for inst in (sort_by_distance(i) for i in random_corpus(15, k_max=4, start=300)):
        trace = run_greedy(inst, Rule.RULE3)
        split, receipt = subdivide_pairs_rule3(inst, trace)
        opt = steiner_forest_exact(inst)
        forest, log = augment_subdivided_solution(
            opt.edge_indices, inst, trace, split, receipt
        )
        assert all(step["non_increasing"] for step in log["steps"])
        weight = sum((inst.graph.edges[ei][2] for ei in forest), F(0))
        assert weight <= 2 * opt.weight
        # the final forest solves the split instance
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ei in forest:
            u, v, _ = inst.graph.edges[ei]
            parent[find(u)] = find(v)
        for p in split.pairs:
            assert find(p.s) == find(p.t)


def test_augment_rejects_increasing_sequences():
    g = WeightedGraph(6, [(0, 1, F(1)), (2, 3, F(5)), (4, 5, F(9))])
    inst = make_instance(g, [(0, 1), (2, 3), (4, 5)])
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    with pytest.raises(InputError):
        augment_subdivided_solution(
            steiner_forest_exact(inst).edge_indices, inst, trace, split, receipt
        )
