from dataclasses import replace
from fractions import Fraction

import pytest

from greedysf.errors import InputError
from greedysf.graph import WeightedGraph, default_eta, subdivide_edges
from greedysf.greedy import Rule, equal_cost_classes, run_greedy
from greedysf.instances import (
    MateMap,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
)
from greedysf.dualfit import (
    AuxiliaryGraph,
    ClassDualCollection,
    build_class_duals,
    collection_to_obj,
    girth_audit,
    moore_bound_audit,
    verify_class_duals,
)
from greedysf.opt import dual_lower_bound_audit, steiner_forest_exact

F = Fraction


def subdivided(inst):
    sub, _ = subdivide_edges(inst.graph, default_eta(inst.graph))
    return make_instance(
        sub, [(p.s, p.t) for p in inst.pairs], [list(e) for e in inst.schedule]
    )


def test_single_pair_single_ball():
    g = WeightedGraph(2, [(0, 1, F(8))])
    inst = make_instance(g, [(0, 1)])
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0])
    assert coll.balls == ((0, 0),)  # ball at s
    assert coll.skipped == () and aux.edges == ()
    assert coll.radius == F(8, 8)  # c / (8 * lg_plus(1))


def test_two_far_pairs_two_balls():
    g = WeightedGraph(4, [(0, 1, F(8)), (2, 3, F(8))])
    inst = make_instance(g, [(0, 1), (2, 3)])
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0, 1])
    assert len(coll.balls) == 2 and not aux.edges


def blocking_instance():
    """Three equal-cost schedule-announced pairs whose third pair is blocked
    on both sides, forcing one auxiliary edge."""
    # 0=s1, 1=t1, 2=s2, 3=t2, 4=s3 (near s1), 5=t3 (near s2)
    edges = [
        (0, 1, F(16)),
        (2, 3, F(16)),
        (0, 4, F(1, 2)),
        (2, 5, F(1, 2)),
        (0, 2, F(100)),  # long bridge keeps the pair costs at 16
    ]
    g = WeightedGraph(6, edges)
    pairs = [(0, 1), (2, 3), (4, 5)]
    schedule = [[(0, 1, F(16))], [(2, 3, F(16))], [(4, 5, F(16))]]
    return make_instance(g, pairs, schedule)


def test_blocked_pair_creates_auxiliary_edge():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    assert trace.costs == [F(16)] * 3
    coll, aux = build_class_duals(trace, inst, [0, 1, 2])
    assert coll.radius == F(16, 16)  # c / (8 * lg_plus(3)) = 16/16
    assert [p for _, p in coll.balls] == [0, 1]
    assert coll.skipped == (2,)
    assert aux.edges == ((0, 1),)  # blocking centers of pairs 0 and 1
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert report.all_ok
    assert report.counting_identity


def test_verifier_rejects_double_ball():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    coll = ClassDualCollection(
        class_cost=F(16), radius=F(1), balls=((0, 0), (1, 0)), skipped=()
    )
    aux = AuxiliaryGraph(centers=(0, 1), edges=())
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert not report.one_ball_per_pair
    assert any("more than one ball" in o for o in report.offenders)


def test_verifier_rejects_mate_distance_radius():
    g = WeightedGraph(2, [(0, 1, F(8))])
    inst = make_instance(g, [(0, 1)])
    trace = run_greedy(inst, Rule.RULE3)
    coll = ClassDualCollection(
        class_cost=F(8), radius=F(8), balls=((0, 0),), skipped=()
    )
    aux = AuxiliaryGraph(centers=(0,), edges=())
    report = verify_class_duals(coll, aux, trace, inst, class_size=1)
    assert not report.radii_below_mate_distance


def test_verifier_rejects_radius_beyond_size_bounds():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    built, aux = build_class_duals(trace, inst, [0, 1, 2])
    # twice the bound c / (8 lg+ 3) = 1; every other clause still holds
    coll = replace(built, radius=F(2))
    assert coll.balls == ((0, 0), (2, 1)) and coll.skipped == (2,)
    assert aux.edges == ((0, 1),)
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert not report.radius_within_class_bound
    assert not report.radius_within_subset_bound
    assert not report.all_ok
    assert "radius exceeds the class-size bound" in report.offenders
    assert "radius exceeds the subset-size bound" in report.offenders
    # a class of one pair bounds the radius by c / 8 = 2: only |P'| = 3 binds
    report = verify_class_duals(coll, aux, trace, inst, class_size=1)
    assert report.radius_within_class_bound and not report.all_ok
    assert report.offenders == ("radius exceeds the subset-size bound",)


# one field of the valid blocking collection tampered: (field, replacement,
# the flag that must fail, a piece of its offender)
CLASS_DUAL_TAMPERS = {
    "skipped_fraction": ("skipped", (2,) * 9, "skipped_fraction_ok", "exceeds 5*|balls|"),
    "center_off_pair": ("balls", ((3, 0), (2, 1)), "centers_at_endpoints", "ball at 3"),
    "overlap": ("balls", ((0, 0), (2, 1), (4, 2)), "balls_disjoint", "balls 0 and 2 overlap"),
    "counting": ("edges", (), "counting_identity", "|aux|=0"),
}


@pytest.mark.parametrize("name", list(CLASS_DUAL_TAMPERS))
def test_verifier_flags_each_tampered_field(name):
    field, value, flag, offender = CLASS_DUAL_TAMPERS[name]
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0, 1, 2])
    assert verify_class_duals(coll, aux, trace, inst, class_size=3).all_ok
    if field == "edges":
        aux = replace(aux, edges=value)
    else:
        coll = replace(coll, **{field: value})
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert getattr(report, flag) is False and not report.all_ok
    assert any(offender in o for o in report.offenders), report.offenders


def test_verifier_accepts_skipped_pairs_at_the_five_to_one_boundary():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0, 1, 2])
    # two balls admit |P'| = 5 * 2 = 10 exactly; one more is the tamper above
    coll = replace(coll, skipped=(2,) * 8)
    assert coll.subset_size == 5 * len(coll.balls)
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert report.skipped_fraction_ok
    assert not any("exceeds 5*|balls|" in o for o in report.offenders)


def test_verifier_names_only_the_pair_with_two_balls():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0, 1, 2])
    assert [p for _, p in coll.balls] == [0, 1]
    coll = replace(coll, balls=coll.balls + (coll.balls[1],))
    report = verify_class_duals(coll, aux, trace, inst, class_size=3)
    assert not report.one_ball_per_pair
    dup = [o for o in report.offenders if o.startswith("pairs with more than one ball")]
    assert dup == ["pairs with more than one ball: [1]"]


def test_builder_validates_inputs():
    g = WeightedGraph(4, [(0, 1, F(8)), (2, 3, F(4))])
    inst = make_instance(g, [(0, 1), (2, 3)])
    trace = run_greedy(inst, Rule.RULE3)
    with pytest.raises(InputError):
        build_class_duals(trace, inst, [0, 1])  # mixed costs


def test_girth_audit_cases():
    empty = AuxiliaryGraph(centers=(), edges=())
    assert girth_audit(empty, 5).holds
    triangle = AuxiliaryGraph(centers=(0, 1, 2), edges=((0, 1), (1, 2), (0, 2)))
    report = girth_audit(triangle, 16)
    assert report.girth == 3 and report.threshold == 8 and not report.holds


def test_moore_bound_cases():
    tree = WeightedGraph(4, [(0, 1, F(1)), (1, 2, F(1)), (2, 3, F(1))])
    assert moore_bound_audit(tree).consistent
    k5 = WeightedGraph(
        5, [(u, v, F(1)) for u in range(5) for v in range(u + 1, 5)]
    )
    rep = moore_bound_audit(k5)
    assert rep.consistent  # premise 10 >= 2*25 never fires
    assert not any(fired for _, fired, _ in rep.checks)


def complete_graph(n):
    return WeightedGraph(n, [(u, v, F(1)) for u in range(n) for v in range(u + 1, n)])


def test_moore_premise_fires_on_dense_graph():
    # K16: 120^p >= 2^p * 16^(p+1) holds at p = 3 and 4, not at p = 1 or 2
    rep = moore_bound_audit(complete_graph(16))
    assert [p for p, fired, _ in rep.checks if fired] == [3, 4]
    assert rep.consistent  # girth 3 <= any fired 2p


def test_moore_audit_computes_girth_once_and_only_when_a_premise_fires(monkeypatch):
    from greedysf import dualfit

    calls = []
    real = dualfit.girth

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(dualfit, "girth", counting)
    # a sparse auxiliary graph, as every class-dual entry of the corpus has
    sparse = AuxiliaryGraph(centers=(0, 1, 2, 3), edges=((0, 1), (1, 2), (2, 3)))
    rep = moore_bound_audit(sparse.skeleton())
    assert rep.consistent and not any(fired for _, fired, _ in rep.checks)
    assert calls == []
    # K16 fires its premise at p = 3 and 4; one girth serves both
    rep = moore_bound_audit(complete_graph(16))
    assert rep.consistent and calls == [16]
    # negative control: a girth above the first fired cap 6 fails there
    monkeypatch.setattr(dualfit, "girth", lambda g: 7)
    rep = moore_bound_audit(complete_graph(16))
    assert not rep.consistent and rep.violated_p == 3


def test_girth_corpus_audits():
    inst = gen_girth_lower_bound("petersen")
    sub = subdivided(inst)
    trace = run_greedy(inst, Rule.RULE3)
    classes = equal_cost_classes(trace)
    assert len(classes) == 1
    cost, pair_ids = classes[0]
    coll, aux = build_class_duals(trace, sub, pair_ids)
    report = verify_class_duals(coll, aux, trace, sub, class_size=len(pair_ids))
    assert report.all_ok
    assert girth_audit(aux, coll.subset_size).holds
    assert moore_bound_audit(aux.skeleton()).consistent
    assert coll.subset_size <= 5 * len(coll.balls)


def test_random_corpus_builder_verifier_agreement():
    for seed in range(25):
        inst = gen_random_instance(6 + seed % 4, 8 + seed % 4, 1 + seed % 4, seed=seed)
        sub = subdivided(inst)
        trace = run_greedy(inst, Rule.RULE3)
        opt_w = steiner_forest_exact(inst).weight
        mates = MateMap(sub)
        for cost, pair_ids in equal_cost_classes(trace):
            coll, aux = build_class_duals(trace, sub, pair_ids)
            report = verify_class_duals(coll, aux, trace, sub, class_size=len(pair_ids))
            assert report.all_ok, report.offenders
            assert girth_audit(aux, coll.subset_size).holds
            assert moore_bound_audit(aux.skeleton()).consistent
            assert not aux.edges or len(aux.edges) < 4 * len(aux.centers)
            balls = [(c, coll.radius) for c, _ in coll.balls]
            audit = dual_lower_bound_audit(balls, sub, mates, opt_w)
            assert not audit.vacuous and audit.bound_holds


def test_collection_serialization():
    inst = blocking_instance()
    trace = run_greedy(inst, Rule.RULE3)
    coll, aux = build_class_duals(trace, inst, [0, 1, 2])
    obj = collection_to_obj(coll, aux)
    assert obj["class_cost"] == "16/1"
    assert obj["radius"] == "1/1"
    assert obj["balls"] == [{"center": 0, "pair": 0}, {"center": 2, "pair": 1}]
    assert obj["aux_edges"] == [[0, 1]]
