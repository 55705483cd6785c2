import json
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from greedysf.errors import InputError, ParseError
from greedysf.exact import SURVIVOR_CHARGE_CAP_UPPER, format_fraction, lg_plus
from greedysf.graph import Distances, WeightedGraph
from greedysf import balanced, greedy
from greedysf.greedy import Rule, run_greedy
from greedysf.instances import gen_canonical_nested, gen_random_instance, make_instance
from greedysf.transforms import to_canonical
from greedysf.canonical import canonical_report
from greedysf.balanced import (
    BalancedDual,
    ClassInfo,
    DualBall,
    PairStatus,
    STEP_FIELDS,
    apply_event,
    ball_neighborhood,
    ball_radius,
    neighborhood_reach,
    balanced_to_obj,
    build_balanced,
    charged_cost,
    induction_bound_audit,
    obj_to_balanced,
    replay,
    trace_classes,
    verify_balanced,
)
from greedysf.opt import steiner_forest_exact
from test_opt import assert_scaling_keeps_the_balanced_dual

F = Fraction


def canonical_setup(M, ppc, delta, seed=1):
    inst = gen_canonical_nested(M, ppc, delta, seed=seed)
    trace = run_greedy(inst, Rule.RULE3)
    return inst, trace


def min_delta(K, alpha=1):
    return 100 * (lg_plus(alpha) + lg_plus(lg_plus(K)))


# -- canonicity ---------------------------------------------------------------

def test_is_canonical_on_generator_output():
    inst, trace = canonical_setup(2, 2, 200)
    report = canonical_report(inst, trace, F(1), 200)
    assert report.is_canonical


def test_is_canonical_missing_schedule():
    g = WeightedGraph(2, [(0, 1, F(4))])
    inst = make_instance(g, [(0, 1)])
    trace = run_greedy(inst, Rule.RULE3)
    report = canonical_report(inst, trace, F(1), 20)
    assert not report.schedule_announces_costs
    assert report.costs_on_separated_grid and report.low_contraction


@pytest.mark.parametrize(
    "edge, offender",
    [
        ((0, 2, F(4)), "schedule[0] edge does not join the pair endpoints"),
        ((1, 0, F(3)), "schedule[0] weight 3 differs from traced cost 4"),
    ],
)
def test_is_canonical_flags_a_wrong_schedule_edge(edge, offender):
    g = WeightedGraph(3, [(0, 1, F(4)), (1, 2, F(4))])
    inst = make_instance(g, [(0, 1)], [[(0, 1, F(4))]])
    trace = run_greedy(inst, Rule.RULE3)
    assert canonical_report(inst, trace, F(1), 20).is_canonical
    report = canonical_report(replace(inst, schedule=((edge,),)), trace, F(1), 20)
    assert not report.schedule_announces_costs and not report.is_canonical
    assert report.offenders == (offender,)


def test_is_canonical_flags_high_contraction():
    inst, trace = canonical_setup(1, 2, 20)
    report = canonical_report(inst, trace, F(1), 20)
    assert report.is_canonical
    # break the grid: mix in an off-grid pair cost via a new instance
    g = WeightedGraph(4, [(0, 1, F(4)), (2, 3, F(3))])
    inst2 = make_instance(
        g, [(0, 1), (2, 3)], [[(0, 1, F(4))], [(2, 3, F(3))]]
    )
    trace2 = run_greedy(inst2, Rule.RULE3)
    report2 = canonical_report(inst2, trace2, F(1), 20)
    assert not report2.costs_on_separated_grid
    # contraction above alpha: a reused route makes a pair cheaper than d_G
    g3 = WeightedGraph(4, [(0, 1, F(4)), (1, 2, F(4)), (0, 3, F(4)), (3, 2, F(4))])
    inst3 = make_instance(g3, [(0, 1), (1, 2), (0, 2)])
    trace3 = run_greedy(inst3, Rule.RULE2)
    report3 = canonical_report(inst3, trace3, F(1), 20)
    assert not report3.low_contraction
    assert any("contraction" in o for o in report3.offenders)


# -- neighborhoods --------------------------------------------------------------

def test_ball_neighborhood_far_and_boundary():
    inst, trace = canonical_setup(2, 2, 200)
    classes = trace_classes(trace)
    cls1 = classes[0]
    balls = [
        DualBall(
            class_index=1,
            center=inst.pairs[pid].s,
            radius=cls1.radius_full,
            owner_pair=pid,
        )
        for pid in cls1.pair_ids
    ]
    neighborhoods = [
        ball_neighborhood(
            inst, b, inst.k, classes,
            Distances(inst.graph, b.center, neighborhood_reach(b.radius, inst.k)),
        )
        for b in balls
    ]
    member_sets = [set(nb.members) for nb in neighborhoods]
    # exactly one host ball sees the planted class-2 pair; the rest see nothing
    non_empty = [m for m in member_sets if m]
    assert len(non_empty) == 1
    assert non_empty[0] <= set(classes[1].pair_ids)
    for nb in neighborhoods:
        assert set(nb.interior) == set(nb.members)  # deep inside, not on border


def test_ball_neighborhood_threshold_boundary():
    # pair endpoint exactly at distance r: inside members and inside border
    g = WeightedGraph(4, [(0, 1, F(64)), (2, 3, F(1)), (0, 2, F(8))])
    inst = make_instance(
        g, [(0, 1), (2, 3)], [[(0, 1, F(64))], [(2, 3, F(1))]]
    )
    trace = run_greedy(inst, Rule.RULE3)
    ball = DualBall(class_index=1, center=0, radius=F(8), owner_pair=0)
    dist = Distances(g, 0, neighborhood_reach(F(8), 2))
    nb = ball_neighborhood(inst, ball, 2, trace_classes(trace), dist)
    assert nb.members == (1,)
    assert nb.border == (1,)  # endpoint at exactly r >= r*(1 - eps)
    assert nb.interior == ()


def test_ball_neighborhood_thresholds_are_non_strict():
    # K=2 gives L=1: a ball of radius 200 around vertex 0 has members up to
    # up = 201 and a border from low = 199.  Pair 1 has an endpoint exactly
    # at up and the other beyond it: a member, on the border.  Pair 2 has an
    # endpoint exactly at low and the other at 100: a member, on the border
    g = WeightedGraph(
        6, [(0, 1, F(1000)), (0, 2, F(201)), (2, 3, F(50)), (0, 4, F(199)), (0, 5, F(100))]
    )
    inst = make_instance(g, [(0, 1), (2, 3), (4, 5)])
    classes = (ClassInfo(1, F(1000), (0,)), ClassInfo(2, F(1), (1, 2)))
    ball = DualBall(class_index=1, center=0, radius=F(200), owner_pair=0)
    assert neighborhood_reach(ball.radius, 2) == 201
    dist = Distances(g, 0, neighborhood_reach(ball.radius, 2))
    nb = ball_neighborhood(inst, ball, 2, classes, dist)
    assert (nb.members, nb.border, nb.interior) == ((1, 2), (1, 2), ())


def test_charged_cost():
    inst, trace = canonical_setup(1, 2, 20)
    ch = {0: F(1), 1: F(1)}
    assert charged_cost(trace.costs, [], ch) == 0
    assert charged_cost(trace.costs, [0, 1], ch) == trace.total_cost
    ch[0] = F(0)
    assert charged_cost(trace.costs, [0, 1], ch) == trace.costs[1]


# -- builder ---------------------------------------------------------------------

def test_build_balanced_single_class():
    inst, trace = canonical_setup(1, 3, 200)
    bd = build_balanced(trace, inst, K=inst.k, delta=200, alpha=1)
    assert all(s is not PairStatus.UNCLASSIFIED for s in bd.statuses.values())
    assert bd.dangerous == set()
    surviving = [i for i, s in bd.statuses.items() if s is PairStatus.SURVIVING]
    assert len(surviving) == len(bd.balls)
    report = verify_balanced(bd, trace, inst, 200)
    assert report.all_ok, report.offenders


@pytest.mark.parametrize("M,ppc", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_build_balanced_multi_class(M, ppc):
    K = M * ppc
    delta = min_delta(K)
    inst, trace = canonical_setup(M, ppc, delta)
    bd = build_balanced(trace, inst, K=K, delta=delta, alpha=1)
    report = verify_balanced(bd, trace, inst, delta)
    assert report.all_ok, report.offenders
    # smaller planted pairs were absorbed: statuses partition the pairs
    assert {s for s in bd.statuses.values()} <= {
        PairStatus.SURVIVING,
        PairStatus.CHARGED,
        PairStatus.DANGEROUS,
    }
    # charge conservation is replayable from the step log
    totals = {e["charged_total"] for e in balanced_to_obj(bd)["step_log"]}
    assert totals <= {format_fraction(trace.total_cost)}


def test_build_balanced_absorbs_planted_pairs():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=2 * 2, delta=200, alpha=1)
    absorbed = [e for e in bd.step_log if e["event"] == "halve_and_absorb" and e["absorbed"]]
    assert absorbed  # the planted class-2 pair was charged to its host
    charged = [i for i, s in bd.statuses.items() if s is PairStatus.CHARGED]
    assert all(bd.charges[i] == 0 for i in charged)


def test_build_balanced_groups_the_costs_twice(monkeypatch):
    # once for the canonical report, once for the classes that both the
    # class-count precondition and the construction read
    original = greedy.equal_cost_classes
    calls = []

    def counted(trace):
        calls.append(trace)
        return original(trace)

    # each module binds the function by name at import, so patch every binding
    for module in list(sys.modules.values()):
        if module.__name__.startswith("greedysf") and (
            getattr(module, "equal_cost_classes", None) is original
        ):
            monkeypatch.setattr(module, "equal_cost_classes", counted)
    inst, trace = canonical_setup(2, 2, 200)
    build_balanced(trace, inst, K=2 * 2, delta=200, alpha=1)
    assert len(calls) == 2


def test_build_balanced_rejects_bad_parameters():
    inst, trace = canonical_setup(1, 2, 200)
    with pytest.raises(InputError):
        build_balanced(trace, inst, K=2, delta=50, alpha=1)  # delta too small
    with pytest.raises(InputError):
        build_balanced(trace, inst, K=1, delta=200, alpha=1)  # K below k
    g = WeightedGraph(2, [(0, 1, F(4))])
    plain = make_instance(g, [(0, 1)])
    plain_trace = run_greedy(plain, Rule.RULE3)
    with pytest.raises(InputError):
        build_balanced(plain_trace, plain, K=1, delta=200, alpha=1)  # not canonical


# -- white-box branch coverage ----------------------------------------------------
#
# Under the separation precondition the delete-and-recharge and grow-and-defer
# branches need more smaller-class charged cost inside one ball than any
# desk-scale instance can carry, so the public builder never reaches them.
# These tests drive the bare procedure on synthetic star geometries that
# violate separation on purpose.


def star_instance(big_cost, small_specs):
    """Center 0, one big pair (0, z), plus small pairs hung on spokes.

    small_specs: list of (spoke_s, spoke_t, direct) where spoke weights hang
    s and t off the center and `direct` optionally joins them; the small cost
    is min(spoke_s + spoke_t, direct).
    """
    edges = [(0, 1, F(big_cost))]
    pairs = [(0, 1)]
    nxt = 2
    for spoke_s, spoke_t, direct in small_specs:
        s, t = nxt, nxt + 1
        nxt += 2
        edges.append((0, s, F(spoke_s)))
        edges.append((0, t, F(spoke_t)))
        if direct is not None:
            edges.append((s, t, F(direct)))
        pairs.append((s, t))
    return make_instance(WeightedGraph(nxt, edges), pairs)


def test_construct_delete_and_recharge_branch():
    from greedysf.balanced import _construct

    # K=2 gives L=1: the deletion threshold is 10*16 = 160; 41 small pairs of
    # cost 396/100 carry 162.36 inside the radius-2 ball around the center
    inst = star_instance(16, [(F(198, 100), F(198, 100), None)] * 41)
    trace = run_greedy(inst, Rule.RULE3)
    assert trace.costs[1:] == [F(396, 100)] * 41
    bd = _construct(trace, inst, K=2, classes=trace_classes(trace))
    assert bd.statuses[0] is PairStatus.CHARGED
    assert bd.charges[0] == 0
    assert all(b.owner_pair != 0 for b in bd.balls)
    events = [e["event"] for e in bd.step_log]
    assert "delete_and_recharge" in events
    # the deleted ball's cost moved onto the interior pairs, conserving total
    boosted = F(1) + F(16) / (41 * F(396, 100))
    assert all(bd.charges[i] == boosted for i in range(1, 42))
    assert len({e["charged_total"] for e in balanced_to_obj(bd)["step_log"]}) == 1
    # the small class then places its own balls and survives
    assert all(bd.statuses[i] is PairStatus.SURVIVING for i in range(1, 42))
    report = verify_balanced(bd, trace, inst, delta=200)
    assert report.all_ok, report.offenders


def _grow_and_defer_certificate():
    """The star whose one ball, pair 0's, grows once and defers pairs 1..81
    as dangerous.

    K=4 gives L=2: deletion threshold 16 * 10 * 2**10 is out of reach, the
    halved ball carries 81 * 198/100 = 160.38 > 160, and 68 border pairs at
    distance exactly 1 outweigh 13 interior ones, forcing one growth step.
    """
    inst = _grow_and_defer_star()
    trace = run_greedy(inst, Rule.RULE3)
    return inst, trace, _construct_at(4)(trace, inst)


def _grow_and_defer_star():
    deep = [(F(99, 100), F(99, 100), None)] * 13
    border = [(F(1), F(1), F(198, 100))] * 68
    return star_instance(16, deep + border)


def _delete_and_recharge_star():
    # the star of test_construct_delete_and_recharge_branch, built with K=2
    return star_instance(16, [(F(198, 100), F(198, 100), None)] * 41)


def _construct_at(K):
    """The builder's class-by-class procedure at K, past its preconditions."""
    from greedysf.balanced import _construct

    return lambda trace, inst: _construct(trace, inst, K=K, classes=trace_classes(trace))


def test_construct_grow_and_defer_branch():
    inst, trace, bd = _grow_and_defer_certificate()
    assert set(trace.costs[1:]) == {F(198, 100)}
    grow = [e for e in bd.step_log if e["event"] == "grow_and_defer"]
    assert len(grow) == 1 and grow[0]["increments"] == 1
    assert bd.statuses[0] is PairStatus.SURVIVING
    assert bd.dangerous == set(range(1, 82))
    assert all(bd.charges[i] == 1 for i in bd.dangerous)
    ball = next(b for b in bd.balls if b.owner_pair == 0)
    # grew once from the halved radius, still below the full radius
    assert ball.radius == F(1) + F(2) / (200 * 4)
    report = verify_balanced(bd, trace, inst, delta=200)
    assert report.all_ok, report.offenders


# -- verifier negative controls ----------------------------------------------------

def corrupted(bd, **changes):
    """What the verifier reads of `bd`, with `changes` made: a `BalancedDual`
    is its log's replay, so a tampered end state needs a stand-in."""
    statuses = changes.get("statuses", dict(bd.statuses))
    return SimpleNamespace(
        K=bd.K,
        classes=bd.classes,
        balls=changes.get("balls", list(bd.balls)),
        charges=changes.get("charges", dict(bd.charges)),
        statuses=statuses,
        dangerous={i for i, s in statuses.items() if s is PairStatus.DANGEROUS},
    )


def test_verifier_flags_corrupted_charge():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    survivor = next(i for i, s in bd.statuses.items() if s is PairStatus.SURVIVING)
    charges = dict(bd.charges)
    charges[survivor] = F(10**6)
    report = verify_balanced(corrupted(bd, charges=charges), trace, inst, 200)
    assert not report.charges_capped
    assert any(f"pair {survivor}" in o for o in report.offenders)


def test_verifier_flags_overlapping_balls():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    twin = DualBall(
        class_index=bd.balls[0].class_index,
        center=bd.balls[0].center,
        radius=bd.balls[0].radius,
        owner_pair=bd.balls[0].owner_pair,
    )
    report = verify_balanced(
        corrupted(bd, balls=list(bd.balls) + [twin]), trace, inst, 200
    )
    assert not report.disjoint_and_covered
    assert any("overlap" in o for o in report.offenders)


def test_verifier_flags_charged_with_nonzero_charge():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    victim = next(i for i, s in bd.statuses.items() if s is PairStatus.CHARGED)
    charges = dict(bd.charges)
    charges[victim] = F(1, 2)
    report = verify_balanced(corrupted(bd, charges=charges), trace, inst, 200)
    assert not report.charges_capped


def _move_ball(**changes):
    return lambda bd: {"balls": [replace(bd.balls[0], **changes)]}


def _charge(pair, value):
    return lambda bd: {"charges": {**bd.charges, pair: value}}


# one field of the valid certificate tampered: (tamper, the clause flag that
# must fail, a piece of its offender)
BALANCED_TAMPERS = {
    # a ball around the far endpoint covers none of the dangerous pairs
    "uncovered": (_move_ball(center=1), "disjoint_and_covered", "outside every"),
    # a tiny owner charge caps the interior below its 13 deep pairs
    "interior": (_charge(0, F(1, 10**6)), "interior_cost_capped", "interior cost exceeds"),
    # at the halved radius the 68 pairs at distance 1 sit on the border
    "border": (_move_ball(radius=F(1)), "border_cost_capped", "border cost exceeds"),
    "survivor_below_1": (_charge(0, F(1, 2)), "charges_capped", "pair 0: surviving charge below 1"),
    "dangerous_over_cap": (_charge(5, F(2)), "charges_capped", "pair 5: dangerous charge 2 exceeds"),
    "dangerous_below_1": (_charge(5, F(1, 2)), "charges_capped", "pair 5: dangerous charge below 1"),
}


@pytest.mark.parametrize("name", list(BALANCED_TAMPERS))
def test_verifier_flags_each_tampered_clause(name):
    tamper, flag, offender = BALANCED_TAMPERS[name]
    inst, trace, bd = _grow_and_defer_certificate()
    assert verify_balanced(bd, trace, inst, 200).all_ok
    report = verify_balanced(corrupted(bd, **tamper(bd)), trace, inst, 200)
    assert getattr(report, flag) is False and not report.all_ok
    assert any(offender in o for o in report.offenders), report.offenders


def test_verifier_accepts_a_dangerous_interior_cost_equal_to_its_cap():
    inst, trace, bd = _grow_and_defer_certificate()
    ball, cls = bd.balls[0], bd.classes[0]
    dist = Distances(inst.graph, ball.center, neighborhood_reach(ball.radius, bd.K))
    nb = ball_neighborhood(inst, ball, bd.K, bd.classes, dist)
    interior = charged_cost(trace.costs, [q for q in nb.interior if q in bd.dangerous], bd.charges)
    assert interior == 81 * F(198, 100)
    # the owner charge that makes the cap 10 * charge * cost * L**10 equal it
    at_cap = interior / (10 * cls.cost * lg_plus(bd.K) ** 10)
    for charge, capped in ((at_cap, True), (at_cap * F(999, 1000), False)):
        report = verify_balanced(corrupted(bd, **_charge(0, charge)(bd)), trace, inst, 200)
        assert report.interior_cost_capped is capped
        assert any("interior cost exceeds" in o for o in report.offenders) is not capped


def test_verifier_accepts_a_surviving_charge_equal_to_its_cap():
    inst, trace, bd = _grow_and_defer_certificate()
    assert bd.statuses[0] is PairStatus.SURVIVING
    for charge, capped in (
        (SURVIVOR_CHARGE_CAP_UPPER, True),
        (SURVIVOR_CHARGE_CAP_UPPER + F(1, 10**9), False),
    ):
        report = verify_balanced(corrupted(bd, **_charge(0, charge)(bd)), trace, inst, 200)
        # conservation fails either way; only the cap's own offender may differ
        assert any("exceeds 55*e^5" in o for o in report.offenders) is not capped


def test_verifier_flags_an_unclassified_pair():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    victim = next(i for i, s in bd.statuses.items() if s is PairStatus.CHARGED)
    statuses = {**bd.statuses, victim: PairStatus.UNCLASSIFIED}
    report = verify_balanced(corrupted(bd, statuses=statuses), trace, inst, 200)
    assert not report.charges_capped
    assert report.offenders == (f"pair {victim} is unclassified",)


def _charge_nothing(bd):
    # no balls and every pair charged with charge 0: every per-pair cap holds
    statuses = {i: PairStatus.CHARGED for i in bd.statuses}
    return {"balls": [], "statuses": statuses, "charges": {i: F(0) for i in bd.charges}}


def _double_a_survivor(bd):
    victim = next(i for i, s in bd.statuses.items() if s is PairStatus.SURVIVING)
    return {"charges": {**bd.charges, victim: F(2)}}


@pytest.mark.parametrize("tamper", [_charge_nothing, _double_a_survivor])
def test_verifier_flags_charges_off_the_greedy_total(tamper):
    # no log replays to these charges, so only a stand-in carries them;
    # clause (e) still flags them from the charges alone
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    changes = tamper(bd)
    report = verify_balanced(corrupted(bd, **changes), trace, inst, 200)
    assert not report.charges_capped
    carried = sum(c * trace.costs[i] for i, c in changes["charges"].items())
    assert carried != trace.total_cost
    assert f"charges carry {carried}, not the greedy total {trace.total_cost}" in report.offenders


def test_verifier_flags_survivors_without_a_ball():
    # every pair surviving at charge 1 with no ball, as before any event: the
    # surviving charges bound nothing, and clause (a) says so
    inst, trace = canonical_setup(2, 3, 300, seed=2)
    bd = build_balanced(trace, inst, K=inst.k, delta=300, alpha=1)
    statuses = {i: PairStatus.SURVIVING for i in bd.statuses}
    charges = {i: F(1) for i in bd.charges}
    report = verify_balanced(
        corrupted(bd, balls=[], statuses=statuses, charges=charges), trace, inst, 300
    )
    assert report.disjoint_and_covered is False
    assert "surviving pairs without a ball: [0, 1, 2, 3, 4, 5]" in report.offenders
    assert not any("overlap" in o for o in report.offenders)


# -- the bound audit ----------------------------------------------------------------

def test_induction_audit_empty_instance():
    g = WeightedGraph(1, [])
    inst = make_instance(g, [])
    trace = run_greedy(inst, Rule.RULE3)
    bd = BalancedDual(K=1, classes=(), centers=(), step_log=[])
    opt = steiner_forest_exact(inst)
    report = induction_bound_audit(bd, opt, inst, trace, delta=200)
    assert report.holds and report.lhs == 0 and report.rhs_upper == 0


@pytest.mark.parametrize("M,ppc", [(1, 3), (2, 2), (3, 2)])
def test_induction_audit_canonical_corpus(M, ppc):
    K = M * ppc
    delta = min_delta(K)
    inst, trace = canonical_setup(M, ppc, delta)
    bd = build_balanced(trace, inst, K=K, delta=delta, alpha=1)
    opt = steiner_forest_exact(inst)
    report = induction_bound_audit(bd, opt, inst, trace, delta)
    assert report.holds
    assert report.lhs == trace.total_cost
    # every class with at least one ball contributes positive optimum mass
    mass = dict(report.per_class_opt_mass)
    for b in bd.balls:
        assert mass[b.class_index] > 0


def test_induction_audit_fails_when_no_ball_holds_optimum_mass():
    # README's instance: with its balls gone the right side is 0, while the
    # greedy total on the left is positive, so the bound must not hold
    inst, trace = canonical_setup(2, 3, 300, seed=2)
    bd = build_balanced(trace, inst, K=inst.k, delta=300, alpha=1)
    opt = steiner_forest_exact(inst)
    assert induction_bound_audit(bd, opt, inst, trace, 300).holds
    report = induction_bound_audit(corrupted(bd, balls=[]), opt, inst, trace, 300)
    assert report.lhs == trace.total_cost > 0
    assert (report.holds, report.rhs_upper) == (False, 0)


# -- the step log replays -------------------------------------------------------------

def _redistribute_skipped_instance():
    """The canonical instance of test_balanced_certificate_redistributes_a_skipped_pair:
    a class of its dual skips a pair, whose charge goes to the balled pairs."""
    raw = gen_random_instance(13, 23, 9, seed=173)
    return to_canonical(raw, run_greedy(raw, Rule.RULE3), 2, 400)[0]


# an input whose dual reaches each event but halve_and_absorb, which every
# canonical corpus reaches: (instance, builder, delta)
EVENT_INPUTS = {
    "redistribute_skipped": (
        _redistribute_skipped_instance,
        lambda trace, inst: build_balanced(trace, inst, K=inst.k, delta=400, alpha=4),
        400,
    ),
    "delete_and_recharge": (_delete_and_recharge_star, _construct_at(2), 200),
    "grow_and_defer": (_grow_and_defer_star, _construct_at(4), 200),
}


def _replays(build, monkeypatch):
    """The dual `build()` returns, and whether the working charges and
    statuses the builder decided on end where the dual's log replays to."""
    working = []

    def spy(charges, statuses, event, cost):
        working[:] = [charges, statuses]
        return apply_event(charges, statuses, event, cost)

    with monkeypatch.context() as m:
        m.setattr(balanced, "apply_event", spy)
        bd = build()
    return bd, [bd.charges, bd.statuses] == working


@pytest.mark.parametrize("event", sorted(EVENT_INPUTS))
def test_step_log_replays_each_event(event, monkeypatch):
    make, build, _ = EVENT_INPUTS[event]
    inst = make()
    bd, replays = _replays(lambda: build(run_greedy(inst, Rule.RULE3), inst), monkeypatch)
    assert event in {e["event"] for e in bd.step_log}
    assert replays


@pytest.mark.parametrize(
    "M,ppc,seed", [(M, ppc, seed) for M, ppc in ((1, 3), (2, 2), (3, 2)) for seed in (0, 1, 2)]
)
def test_step_log_replays_on_the_canonical_corpus(M, ppc, seed, monkeypatch):
    K = M * ppc
    delta = min_delta(K)
    inst, trace = canonical_setup(M, ppc, delta, seed=seed)
    assert _replays(lambda: build_balanced(trace, inst, K=K, delta=delta, alpha=1), monkeypatch)[1]


# class 1 is pair 0 at cost 8, class 2 pairs 1..3 at cost 2: the total is 14
HAND_CLASSES = (ClassInfo(1, F(8), (0,)), ClassInfo(2, F(2), (1, 2, 3)))
# conserving, and moves charge off pair 3 and onto pair 2, which the events
# below do not name
SKIP_PAIR_3 = {"event": "redistribute_skipped", "class_index": 2, "skipped": [3], "balled": [2]}
NON_CONSERVING_EVENTS = {
    "interior_repeats_a_pair": {"event": "delete_and_recharge", "interior": [1, 1]},
    "interior_names_the_owner": {"event": "delete_and_recharge", "interior": [0, 1]},
    "owner_absorbs_itself": {"event": "halve_and_absorb", "absorbed": [1, 0]},
}


@pytest.mark.parametrize("after", [0, 1])
@pytest.mark.parametrize("name", sorted(NON_CONSERVING_EVENTS))
def test_replay_checks_each_event_on_the_pairs_it_names(name, after):
    step = {**NON_CONSERVING_EVENTS[name], "class_index": 1, "owner": 0}
    log = [SKIP_PAIR_3] * after + [step]
    with pytest.raises(ParseError, match=rf"^step_log\[{after}\] changes the charged total$"):
        replay(4, HAND_CLASSES, (), log)


def test_reader_refuses_a_logged_total_other_than_the_start():
    # the replay reads no logged total: the writer stamps the start total on
    # every step, and the reader refuses a file step stamped with another
    assert replay(4, HAND_CLASSES, (), [SKIP_PAIR_3])[1] == {0: 1, 1: 1, 2: 2, 3: 0}
    obj = json.loads(json.dumps(balanced_to_obj(BalancedDual(4, HAND_CLASSES, (), [SKIP_PAIR_3]))))
    assert obj["step_log"] == [{**SKIP_PAIR_3, "charged_total": "14/1"}]
    assert obj_to_balanced(obj).step_log == [SKIP_PAIR_3]
    obj["step_log"][0]["charged_total"] = "13/1"
    assert _refusal(obj) == "certificate field 'step_log[0]' is not the writer's form of its inputs"


def test_replay_refuses_to_defer_a_classified_pair():
    # deferring a pair twice is refused in a replayed log as in the builder
    _, _, bd = _grow_and_defer_certificate()
    grow = next(i for i, e in enumerate(bd.step_log) if e["event"] == "grow_and_defer")
    log = bd.step_log[: grow + 1] + [bd.step_log[grow]]
    with pytest.raises(ParseError, match=rf"step_log\[{grow + 1}\] .* already classified"):
        replay(bd.K, bd.classes, bd.centers, log)


@pytest.mark.parametrize("event", sorted(EVENT_INPUTS))
def test_weight_scaling_keeps_each_event(event):
    # the scaling relation of test_weight_scaling_keeps_the_balanced_dual,
    # on inputs that reach the three events the canonical corpus does not
    make, build, delta = EVENT_INPUTS[event]
    bd = assert_scaling_keeps_the_balanced_dual(make(), build, delta)
    assert event in {e["event"] for e in bd.step_log}


# -- serialization --------------------------------------------------------------------

def test_balanced_roundtrip():
    inst, trace = canonical_setup(2, 2, 200)
    bd = build_balanced(trace, inst, K=4, delta=200, alpha=1)
    obj = json.loads(json.dumps(balanced_to_obj(bd)))
    back = obj_to_balanced(obj)
    assert back.K == bd.K
    assert back.charges == bd.charges
    assert back.statuses == bd.statuses
    assert back.balls == bd.balls
    report = verify_balanced(back, trace, inst, 200)
    assert report.all_ok


def _corpus_build(M, ppc, seed):
    K = M * ppc
    delta = min_delta(K)
    inst, trace = canonical_setup(M, ppc, delta, seed=seed)
    return trace, build_balanced(trace, inst, K=K, delta=delta, alpha=1)


def _event_build(event):
    make, build, _ = EVENT_INPUTS[event]
    inst = make()
    trace = run_greedy(inst, Rule.RULE3)
    return trace, build(trace, inst)


def _corpus_dual(M, ppc, seed):
    return _corpus_build(M, ppc, seed)[1]


def _event_dual(event):
    # the white-box builds reach their events at a K below the pair count,
    # which the reader refuses; the replay reads K only for grow radii, so
    # at the pair count the file still takes its log through every event
    trace, bd = _event_build(event)
    return replace(bd, K=max(bd.K, trace.k))


@pytest.mark.parametrize(
    "make, arg",
    [
        *(
            (_corpus_dual, (M, ppc, seed))
            for M, ppc in ((1, 3), (2, 2), (3, 2))
            for seed in (0, 1, 2)
        ),
        *((_event_dual, (event,)) for event in sorted(EVENT_INPUTS)),
    ],
)
def test_every_certificate_writes_back_unchanged(make, arg):
    # the reader is the writer's inverse on every certificate the writer
    # writes, through all four events and a non-empty dangerous list
    obj = json.loads(json.dumps(balanced_to_obj(make(*arg))))
    assert balanced_to_obj(obj_to_balanced(obj)) == obj


# the canonical corpus and the event inputs, as (builder, its arguments)
BUILDS = [
    *(
        (_corpus_build, (M, ppc, seed))
        for M, ppc in ((1, 3), (2, 2), (3, 2))
        for seed in (0, 1, 2)
    ),
    *((_event_build, (event,)) for event in sorted(EVENT_INPUTS)),
]


@pytest.mark.parametrize("build, arg", BUILDS)
def test_every_logged_step_holds_its_event_fields(build, arg):
    # a step is `event`, `class_index` and its event's fields, in that order:
    # the writer adds the stamp, and the reader keeps no other key
    _, bd = build(*arg)
    for step in bd.step_log:
        assert list(step) == ["event", "class_index", *STEP_FIELDS[step["event"]]]


@pytest.mark.parametrize("build, arg", BUILDS)
def test_the_replay_places_what_the_cross_checks_check(build, arg):
    # verify_balanced keeps three checks that no replayed dual reaches, as
    # cross-checks of the replay's ball placement against the classes: each
    # ball is in its owner's class, each surviving pair owns a ball, and the
    # charges and statuses are keyed by exactly the classes' pairs
    _, bd = build(*arg)
    class_of = {i: cls.index for cls in bd.classes for i in cls.pair_ids}
    assert all(b.class_index == class_of[b.owner_pair] for b in bd.balls)
    surviving = {i for i, s in bd.statuses.items() if s is PairStatus.SURVIVING}
    assert surviving <= {b.owner_pair for b in bd.balls}
    assert set(bd.charges) == set(bd.statuses) == set(class_of)


@pytest.mark.parametrize("build, arg", BUILDS)
def test_every_step_logs_the_greedy_total(build, arg):
    # the writer stamps the start total on every step, since events conserve it
    trace, bd = build(*arg)
    assert bd.step_log
    written = balanced_to_obj(bd)["step_log"]
    assert {e["charged_total"] for e in written} == {format_fraction(trace.total_cost)}


def _grow_and_defer_at_the_pair_count():
    """The grow-and-defer star built at K = its 82 pairs, the least K a file
    may state: at L = 7 its one ball still grows once and defers 1..81."""
    inst = _grow_and_defer_star()
    trace = run_greedy(inst, Rule.RULE3)
    bd = _construct_at(inst.k)(trace, inst)
    assert [(e["event"], e["increments"]) for e in bd.step_log] == [("grow_and_defer", 1)]
    assert verify_balanced(bd, trace, inst, delta=200).all_ok
    return inst, trace, bd


def test_duplicated_dangerous_pair_is_refused(tmp_path, capsys):
    # dangerous is derived from the statuses: a file that lists a pair twice
    # is not the file the writer writes, under either reader
    from greedysf.cli import main
    from greedysf.instances import serialize_instance

    inst, _, bd = _grow_and_defer_at_the_pair_count()
    obj = balanced_to_obj(bd)
    assert obj["dangerous"] == list(range(1, 82))
    obj["dangerous"].insert(0, 1)
    canon, given = tmp_path / "star.json", tmp_path / "given.json"
    canon.write_text(serialize_instance(inst))
    given.write_text(json.dumps(obj))
    for argv in (
        ["audit", "--kind", "conservation", "--certificate", given],
        ["certify", "--kind", "balanced", "--instance", canon, "--K", 82,
         "--delta", 200, "--alpha", "1", "--certificate", given],
    ):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "certificate field 'dangerous'" in err


def _halve_and_absorb_build():
    inst, trace = canonical_setup(2, 2, 200)
    return inst, trace, build_balanced(trace, inst, K=4, delta=200, alpha=1)


@pytest.mark.parametrize(
    "build, event, stray",
    [
        (_halve_and_absorb_build, "halve_and_absorb", "increments"),
        (_grow_and_defer_at_the_pair_count, "grow_and_defer", "absorbed"),
    ],
)
def test_a_step_with_a_stray_key_is_refused_naming_the_step(
    tmp_path, capsys, build, event, stray
):
    # a field of another event's step: the reader keeps only the step's own
    # fields, so the write-back differs at that step, under either reader
    from greedysf.cli import main
    from greedysf.instances import serialize_instance

    inst, _, bd = build()
    obj = balanced_to_obj(bd)
    i = max(j for j, e in enumerate(obj["step_log"]) if e["event"] == event)
    assert stray not in obj["step_log"][i]
    obj["step_log"][i][stray] = []
    canon, given = tmp_path / "inst.json", tmp_path / "given.json"
    canon.write_text(serialize_instance(inst))
    given.write_text(json.dumps(obj))
    for argv in (
        ["audit", "--kind", "conservation", "--certificate", given],
        ["certify", "--kind", "balanced", "--instance", canon, "--K", bd.K,
         "--delta", 200, "--alpha", "1", "--certificate", given],
    ):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        message = f"certificate field 'step_log[{i}]' is not the writer's form of its inputs"
        assert err.count("\n") == 1 and message in err


def _refusal(obj):
    with pytest.raises(ParseError) as info:
        obj_to_balanced(obj)
    return str(info.value)


def test_an_end_state_off_the_log_is_refused_as_such():
    # balls, charges and statuses are the log's replay, not inputs of the
    # writer; a ball's center is, one per ball-placing step
    obj = json.loads(json.dumps(balanced_to_obj(_corpus_dual(2, 2, 0))))
    emptied = {**obj, "step_log": []}
    assert _refusal(emptied) == (
        f"certificate field 'balls' has {len(obj['balls'])} centers for 0 ball-placing steps"
    )
    halved = [{**obj["balls"][0], "radius": "1/1"}, *obj["balls"][1:]]
    assert _refusal({**obj, "balls": halved}) == (
        "certificate field 'balls' is not where its step_log replays to"
    )
    uncharged = {**obj, "charges": {**obj["charges"], "0": "0/1"}}
    assert _refusal(uncharged) == (
        "certificate field 'charges' is not where its step_log replays to"
    )
    unlisted = {**obj, "statuses": {**obj["statuses"], "0": "dangerous"}}
    assert _refusal(unlisted) == (
        "certificate field 'statuses' is not where its step_log replays to"
    )
    assert _refusal({**obj, "dangerous": [0]}) == (
        "certificate field 'dangerous' is not the writer's form of its inputs"
    )


def _grow_and_defer_file(tmp_path, increments):
    """The grow-and-defer star's instance and certificate, its one growth step
    logging `increments` (1 as built); returns the paths and the step index."""
    from greedysf.instances import serialize_instance

    inst, _, bd = _grow_and_defer_at_the_pair_count()
    obj = balanced_to_obj(bd)
    i = next(j for j, e in enumerate(obj["step_log"]) if e["event"] == "grow_and_defer")
    assert obj["step_log"][i]["increments"] == 1
    obj["step_log"][i]["increments"] = increments
    canon, given = tmp_path / "star.json", tmp_path / "given.json"
    canon.write_text(serialize_instance(inst))
    given.write_text(json.dumps(obj))
    return canon, given, i


@pytest.mark.parametrize("increments", [0, 2, 7, -1, True, "1", None])
def test_grow_and_defer_increments_is_its_ball_growth(tmp_path, capsys, increments):
    # the owner's ball grew from r/2 by `increments` steps of r/(200*L^2): any
    # other count replays to another ball than the file's, and a count that
    # is not a non-negative integer grows no ball
    from greedysf.cli import main

    _, given, i = _grow_and_defer_file(tmp_path, increments)
    capsys.readouterr()
    assert main(["audit", "--kind", "conservation", "--certificate", str(given)]) == 2
    err = capsys.readouterr().err
    if type(increments) is int and increments >= 0:
        expected = "certificate field 'balls' is not where its step_log replays to"
    else:
        expected = f"step_log[{i}] increments must be a non-negative integer"
    assert err.count("\n") == 1 and expected in err


def test_grow_and_defer_owner_without_a_ball_fails_clause_a(tmp_path, capsys):
    # the owner's ball is its step's replay: a file without it has fewer
    # centers than its log places balls, and is malformed; clause (a)'s
    # binding is reached by a log that places a second ball for one owner
    # (test_cli's test_a_second_ball_for_one_owner_reads_and_fails_clause_a)
    from greedysf.cli import main

    _, given, _ = _grow_and_defer_file(tmp_path, 1)
    obj = json.loads(given.read_text())
    obj["balls"] = [b for b in obj["balls"] if b["pair"] != 0]
    given.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["audit", "--kind", "conservation", "--certificate", str(given)]) == 2
    err = capsys.readouterr().err
    message = "certificate field 'balls' has 0 centers for 1 ball-placing steps"
    assert err.count("\n") == 1 and message in err
    assert _refusal(obj) == message


def test_a_growth_past_the_full_radius_reads_and_fails_clause_b():
    # the replay grows a ball by any non-negative count, so clause (b) keeps
    # its radius in [r/2, r]: r = 2 and L = 7 give 1 + 10**4 * 2/9800
    inst, trace, bd = _grow_and_defer_at_the_pair_count()
    forged = replace(bd, step_log=[{**bd.step_log[0], "increments": 10**4}])
    back = obj_to_balanced(json.loads(json.dumps(balanced_to_obj(forged))))
    report = verify_balanced(back, trace, inst, delta=200)
    assert report.radii_in_range is False
    assert "ball 0 radius 149/49 outside [r/2, r] for its class" in report.offenders


def test_negative_increments_is_refused_on_a_ball_it_matches(tmp_path, capsys):
    # a ball one growth step below r/2 fits r/2 + t*r/(200*L^2) at t = -1
    from greedysf.cli import main

    _, given, i = _grow_and_defer_file(tmp_path, -1)
    obj = json.loads(given.read_text())
    r = F(obj["classes"][0]["radius_full"])
    ball = next(b for b in obj["balls"] if b["pair"] == 0)
    ball["radius"] = format_fraction(r / 2 - r / (200 * lg_plus(82) ** 2))
    given.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["audit", "--kind", "conservation", "--certificate", str(given)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"step_log[{i}] increments must be a non-negative integer" in err


def test_every_growth_below_the_cap_stays_under_the_full_radius():
    # why the builder needs no radius guard: grow_cap = 60*L*lg+(L) < 100*L^2,
    # so the last growth it may try is still below r, inside the search
    # `Distances` ran to the full ball's reach
    for K in (2**j for j in range(65)):
        L = lg_plus(K)
        grow_cap = 60 * L * lg_plus(L)
        for cls in HAND_CLASSES:
            assert ball_radius(cls, K, 0) == cls.radius_full / 2
            assert ball_radius(cls, K, grow_cap - 1) < cls.radius_full


def test_the_builder_and_the_reader_start_from_one_state(monkeypatch):
    # the start tables are where every log starts, so building and reading
    # a file each take them from one helper: the builder once, the replay once
    inst, trace = canonical_setup(2, 2, 200)
    starts = []
    start = balanced._start
    monkeypatch.setattr(balanced, "_start", lambda classes: starts.append(classes) or start(classes))
    bd = build_balanced(trace, inst, K=inst.k, delta=200, alpha=1)
    assert starts == [bd.classes]  # the end state is not replayed until read
    obj = json.loads(json.dumps(balanced_to_obj(bd)))
    starts.clear()
    back = obj_to_balanced(obj)
    assert starts == [bd.classes]  # the reader's replay, which its write-back reads
    assert balanced_to_obj(back) == obj
