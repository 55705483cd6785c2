"""Balanced dual solutions: construction, verification, and the bound audit.

The builder walks cost classes from the most to the least expensive.  Each
class places disjoint dual balls around its still-unclassified pairs, then
per ball inspects the charged cost of the smaller pairs that landed near it:

* delete-and-recharge when the interior carries far more charged cost than
  the ball's own pair (the ball is erased, its cost pushed onto the interior
  pairs proportionally to their charged cost);
* otherwise halve the ball; absorb the halved neighborhood onto the owner
  when it is cheap, else grow the radius step by step until the border
  carries little compared to the interior and defer those pairs as
  dangerous.

`apply_event` is the one charge flow.  A `BalancedDual` holds `K`, the
classes, one ball center per ball-placing step and the step log; `replay`
takes the log from every charge at 1 to its balls, charges and statuses.  The
builder shares the replay's definitions: it starts from the same `_start`,
sizes each ball with the same `ball_radius` and sums with the same
`charged_cost`, so it decides on the charges and statuses that its log
replays to, and cannot return an end state its log does not reach.  A step
holds `event`, `class_index` (the class of its pairs) and its event's
`STEP_FIELDS`; the writer stamps each with the start total, `charged_total`,
which events conserve.

`obj_to_balanced` parses only a certificate's inputs and accepts only a file
that `balanced_to_obj` writes back unchanged, key for key, steps too: the
writer is the one definition of the file, and the log of its end state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import GreedysfError, InputError, InternalConsistencyError, ParseError
from .exact import (
    SURVIVOR_CHARGE_CAP_UPPER,
    E5_UPPER,
    class_radius,
    exp_upper,
    format_fraction,
    lg_plus,
    parse_fraction,
    parse_int,
    parse_list,
    unwritten_field,
)
from .graph import Distances, first_overlap, overlapping_pairs
from .greedy import RunTrace, equal_cost_classes
from .instances import Instance
from .canonical import canonical_report
from .dualfit import build_class_duals
from .opt import SteinerSolution, opt_weight_in_ball


# each event's own fields, in logged order after `event` and `class_index`
STEP_FIELDS = {
    "redistribute_skipped": ("skipped", "balled"),
    "delete_and_recharge": ("owner", "interior"),
    "halve_and_absorb": ("owner", "absorbed"),
    "grow_and_defer": ("owner", "increments", "deferred"),
}


class PairStatus(enum.Enum):
    UNCLASSIFIED = "unclassified"
    SURVIVING = "surviving"
    CHARGED = "charged"
    DANGEROUS = "dangerous"


@dataclass(frozen=True)
class ClassInfo:
    index: int  # 1-based, most expensive class first
    cost: Fraction
    pair_ids: tuple[int, ...]

    @cached_property
    def radius_full(self) -> Fraction:
        """The ball radius cost / (8 * lg_plus(class size)); no field holds it."""
        return class_radius(self.cost, len(self.pair_ids))


@dataclass(frozen=True)
class DualBall:
    class_index: int
    center: int
    radius: Fraction
    owner_pair: int


@dataclass(frozen=True)
class BallNeighborhood:
    """Smaller-class pairs near a ball, split into border and interior.

    Membership uses original-graph distances from the ball center with the
    non-strict thresholds radius*(1 +- 1/(200*L^2)), L = lg_plus(K).
    """

    members: tuple[int, ...]  # B_P
    border: tuple[int, ...]  # pairs with an endpoint at distance >= low threshold
    interior: tuple[int, ...]  # members minus border


@dataclass(frozen=True)
class BalancedDual:
    K: int
    classes: tuple[ClassInfo, ...]
    centers: tuple[int, ...]  # one per ball-placing step, in log order
    step_log: list[dict]

    @cached_property
    def end_state(self) -> tuple[list[DualBall], dict[int, Fraction], dict[int, PairStatus]]:
        """The balls, charges and statuses the step log replays to; no field holds them."""
        return replay(self.K, self.classes, self.centers, self.step_log)

    balls = property(lambda self: self.end_state[0])
    charges = property(lambda self: self.end_state[1])
    statuses = property(lambda self: self.end_state[2])

    @property
    def dangerous(self) -> set[int]:
        return {i for i, s in self.statuses.items() if s is PairStatus.DANGEROUS}


def trace_classes(trace: RunTrace) -> tuple[ClassInfo, ...]:
    """Exact-cost classes of a trace, most expensive first, arrival order inside."""
    if any(c <= 0 for c in trace.costs):
        raise InputError("canonical traces cannot contain zero-cost pairs")
    return tuple(
        ClassInfo(index=idx, cost=cost, pair_ids=tuple(ids))
        for idx, (cost, ids) in enumerate(equal_cost_classes(trace), start=1)
    )


def _class_of_pair(classes: tuple[ClassInfo, ...]) -> dict[int, int]:
    return {i: cls.index for cls in classes for i in cls.pair_ids}


def charged_cost(cost, pair_ids, charges: dict[int, Fraction]) -> Fraction:
    """Sum of charge(p) * cost[p] over the pairs: a class-cost map or a trace's `costs`."""
    return sum((charges[i] * cost[i] for i in pair_ids), Fraction(0))


def _start(classes: tuple[ClassInfo, ...]):
    """Where a log starts: each pair's class cost, its charge at 1, its status unclassified."""
    cost = {i: cls.cost for cls in classes for i in cls.pair_ids}
    return cost, {i: Fraction(1) for i in cost}, {i: PairStatus.UNCLASSIFIED for i in cost}


def _slack(K: int) -> Fraction:
    """The relative width 1/(200*L^2), L = lg_plus(K), of a ball's border band."""
    L = lg_plus(K)
    return Fraction(1, 200 * L * L)


def ball_radius(cls: ClassInfo, K: int, increments: int) -> Fraction:
    """The radius r/2 + increments*r/(200*L^2) of a ball of `cls`, r its `radius_full`."""
    return cls.radius_full / 2 + increments * cls.radius_full * _slack(K)


def neighborhood_reach(radius: Fraction, K: int) -> Fraction:
    """The radius*(1 + 1/(200*L^2)) a ball's neighborhood extends to."""
    return radius * (1 + _slack(K))


def ball_neighborhood(
    inst: Instance,
    ball: DualBall,
    K: int,
    classes: tuple[ClassInfo, ...],
    dist: Distances,
) -> BallNeighborhood:
    """Classify smaller-class pairs around a ball into members/border/interior.

    `classes` are the trace's cost classes; `dist` is a search from the
    ball's center run to at least `neighborhood_reach(ball.radius, K)`.
    """
    class_of = _class_of_pair(classes)
    up = neighborhood_reach(ball.radius, K)
    low = ball.radius * (1 - _slack(K))

    members, border, interior = [], [], []
    for i, pair in enumerate(inst.pairs):
        if class_of.get(i, 0) <= ball.class_index:
            continue
        if dist.side(pair.s, up) > 0 and dist.side(pair.t, up) > 0:
            continue
        members.append(i)
        if dist.side(pair.s, low) >= 0 or dist.side(pair.t, low) >= 0:
            border.append(i)
        else:
            interior.append(i)
    return BallNeighborhood(
        members=tuple(members),
        border=tuple(border),
        interior=tuple(interior),
    )


def _require(condition: bool, clause: str):
    if not condition:
        raise InputError(f"precondition violated: {clause}")


def balanced_classes(
    trace: RunTrace, inst: Instance, K: int, delta: int, alpha
) -> tuple[ClassInfo, ...]:
    """The cost classes of a run, once the balanced dual's preconditions hold.

    Refuses non-canonical inputs and parameter combinations outside the
    separation regime, because every clause constant depends on them: both
    building a certificate and checking a given one require them.
    """
    alpha = Fraction(alpha)
    report = canonical_report(inst, trace, alpha, delta)
    _require(report.is_canonical, f"instance not canonical: {report.offenders[:3]}")
    _require(K >= trace.k, f"K={K} below the pair count {trace.k}")
    _require(K >= 1, "K must be at least 1")
    L = lg_plus(K)
    _require(
        delta >= 100 * (lg_plus(alpha) + lg_plus(L)),
        f"delta={delta} below 100*(lg+(alpha)+lg+lg+(K))={100 * (lg_plus(alpha) + lg_plus(L))}",
    )
    classes = trace_classes(trace)
    _require(len(classes) <= L, f"class count {len(classes)} exceeds lg+(K)={L}")
    return classes


def build_balanced(
    trace: RunTrace,
    inst: Instance,
    K: int,
    delta: int,
    alpha,
) -> BalancedDual:
    """Construct a balanced dual solution for a canonical instance, under the
    preconditions `balanced_classes` checks."""
    return _construct(trace, inst, K, balanced_classes(trace, inst, K, delta, alpha))


def apply_event(charges, statuses, event: dict, cost: dict[int, Fraction]) -> Fraction:
    """Move the charges and set the statuses for one step-log event.

    The one charge flow: the builder applies each event it logs through here
    and `replay` a certificate's log; `cost` maps a pair to its class cost.
    Returns the change the event made to sum(charge * cost) over the pairs it
    names.  It moves no other pair's charge, so this is the change to the
    charged total: 0 for every event the builder logs.
    """
    kind = event["event"]
    # the pairs each field names, in logged order; `increments` names none
    fields = {
        name: [parse_int(event[name], name)] if name == "owner"
        else [parse_int(q, f"{name} pair") for q in parse_list(event[name], name)]
        for name in STEP_FIELDS[kind] if name != "increments"
    }
    [owner] = fields.get("owner", [None])
    named = {q for pairs in fields.values() for q in pairs}

    before = charged_cost(cost, named, charges)
    if kind == "redistribute_skipped":
        share = sum((charges[q] for q in fields["skipped"]), Fraction(0)) / len(fields["balled"])
        for q in fields["skipped"]:
            charges[q], statuses[q] = Fraction(0), PairStatus.CHARGED
        for p in fields["balled"]:
            charges[p] += share
    elif kind == "delete_and_recharge":
        factor = 1 + charges[owner] * cost[owner] / charged_cost(cost, fields["interior"], charges)
        for q in fields["interior"]:
            charges[q] *= factor
        charges[owner], statuses[owner] = Fraction(0), PairStatus.CHARGED
    elif kind == "halve_and_absorb":
        for q in fields["absorbed"]:
            if statuses[q] is not PairStatus.CHARGED:  # else zero charge moves nothing
                charges[owner] += charges[q] * cost[q] / cost[owner]
                charges[q], statuses[q] = Fraction(0), PairStatus.CHARGED
        statuses[owner] = PairStatus.SURVIVING
    else:  # grow_and_defer moves no charge
        for q in fields["deferred"]:
            if statuses[q] is not PairStatus.UNCLASSIFIED:
                raise InternalConsistencyError(
                    f"pair {q} was already classified when ball of pair "
                    f"{owner} tried to defer it"
                )
            statuses[q] = PairStatus.DANGEROUS
        statuses[owner] = PairStatus.SURVIVING
    return charged_cost(cost, named, charges) - before


def _construct(
    trace: RunTrace, inst: Instance, K: int, classes: tuple[ClassInfo, ...]
) -> BalancedDual:
    """The iterative class-by-class procedure over the trace's cost classes,
    preconditions already vetted; its charges and statuses are working state
    for its decisions, and the dual it returns replays them from its log."""
    L = lg_plus(K)
    cost, charges, statuses = _start(classes)
    centers: list[int] = []
    ball_members: list[frozenset[int]] = []
    log: list[dict] = []
    grow_cap = 60 * L * lg_plus(L)

    def log_event(kind: str, cls: ClassInfo, *values):
        step = {"event": kind, "class_index": cls.index, **dict(zip(STEP_FIELDS[kind], values))}
        apply_event(charges, statuses, step, cost)
        log.append(step)

    for cls in classes:
        unclassified = [
            i for i in cls.pair_ids if statuses[i] is PairStatus.UNCLASSIFIED
        ]
        if not unclassified:
            continue
        coll, _aux = build_class_duals(trace, inst, list(cls.pair_ids), unclassified)

        if coll.skipped:
            log_event("redistribute_skipped", cls, list(coll.skipped), [p for _, p in coll.balls])

        recharged_this_iteration: set[int] = set()
        reach = neighborhood_reach(cls.radius_full, K)
        for center, owner in coll.balls:
            ball = DualBall(cls.index, center, cls.radius_full, owner)
            # every ball this owner may end with has radius <= radius_full,
            # so one search to the full ball's reach answers all of them
            dist = Distances(inst.graph, center, reach)
            nb = ball_neighborhood(inst, ball, K, classes, dist)
            _check_targets_fresh(nb.members, statuses, ball)
            sigma = charged_cost(cost, nb.interior, charges)
            threshold_delete = 10 * charges[owner] * cls.cost * L**10
            if sigma > threshold_delete:
                # delete and recharge: the ball is erased, its charged cost
                # pushed onto the interior pairs proportionally to theirs;
                # same-class balls are disjoint, so a pair is hit once per
                # iteration or the construction is inconsistent
                repeat = recharged_this_iteration & set(nb.interior)
                if repeat:
                    raise InternalConsistencyError(
                        f"pairs {sorted(repeat)} recharged twice in one class "
                        "iteration"
                    )
                recharged_this_iteration.update(nb.interior)
                log_event("delete_and_recharge", cls, owner, list(nb.interior))
                continue
            t = 0  # increments grown past r/2
            halved = replace(ball, radius=ball_radius(cls, K, t))
            nbt = ball_neighborhood(inst, halved, K, classes, dist)
            if charged_cost(cost, nbt.members, charges) <= 10 * charges[owner] * cls.cost:
                # halve and absorb: the halved neighborhood is charged to the owner
                log_event("halve_and_absorb", cls, owner, list(nbt.members))
            else:
                # grow and defer: enlarge until the border carries little,
                # then mark the whole neighborhood dangerous; below grow_cap
                # the radius stays under r, as 60*L*lg+(L) < 100*L^2
                while True:
                    border_cost = charged_cost(cost, nbt.border, charges)
                    if border_cost <= Fraction(10, L) * charged_cost(cost, nbt.interior, charges):
                        break
                    t += 1
                    if t >= grow_cap:
                        raise InternalConsistencyError(
                            f"ball around pair {owner}: radius growth did not "
                            f"stabilize within {grow_cap} increments"
                        )
                    grown = replace(ball, radius=ball_radius(cls, K, t))
                    nbt = ball_neighborhood(inst, grown, K, classes, dist)
                log_event("grow_and_defer", cls, owner, t, list(nbt.members))
            members = dist.ball(ball_radius(cls, K, t))
            prev_idx = first_overlap(ball_members, members)
            if prev_idx is not None:
                raise InternalConsistencyError(
                    f"ball of pair {owner} overlaps ball "
                    f"{prev_idx}; the separation regime should prevent this"
                )
            centers.append(center)
            ball_members.append(members)

    leftover = sorted(i for i, s in statuses.items() if s is PairStatus.UNCLASSIFIED)
    if leftover:
        raise InternalConsistencyError(f"pairs never classified: {leftover}")
    return BalancedDual(K, classes, tuple(centers), log)


def _check_targets_fresh(members, statuses, ball: DualBall):
    for q in members:
        if statuses[q] is PairStatus.DANGEROUS:
            raise InternalConsistencyError(
                f"pair {q} is already dangerous but lies near the new ball of "
                f"pair {ball.owner_pair}"
            )


@dataclass(frozen=True)
class BalancedReport:
    disjoint_and_covered: bool  # clause (a)
    radii_in_range: bool  # clause (b)
    interior_cost_capped: bool  # clause (c)
    border_cost_capped: bool  # clause (d)
    charges_capped: bool  # clause (e)
    offenders: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.disjoint_and_covered
            and self.radii_in_range
            and self.interior_cost_capped
            and self.border_cost_capped
            and self.charges_capped
        )


def verify_balanced(
    bd: BalancedDual, trace: RunTrace, inst: Instance, delta: int
) -> BalancedReport:
    """Audit the five clauses of a balanced dual solution.

    Clause (a) also binds the balls to the pairs as the builder does: every
    surviving pair owns exactly one ball, in its own cost class, and no other
    pair owns a ball.  Without this a certificate with no balls at all would
    pass, and the surviving charges would bound nothing.

    The replay places each ball in its owner's class, one per surviving
    owner, so no dual reaches the unknown pair or class refusal, the class
    offender or `surviving pairs without a ball`.  They stay as cross-checks
    of that placement against the trace's classes, made without the replay.

    Clause (e) also checks conservation: the charges, weighted by the traced
    costs, must sum to the greedy total, as the initial all-one charges do.
    A `BalancedDual`'s charges are its log's replay, which refuses a step
    that changes the total, so this check restates conservation from the
    charges the clauses read rather than from the log.
    The cap on surviving charges involves 55*e^5 and is compared against a
    certified rational upper bound, so a correct solution is never rejected
    over constant precision.
    """
    offenders: list[str] = []
    L = lg_plus(bd.K)
    classes = trace_classes(trace)
    if bd.classes != classes:
        raise InputError("certificate classes differ from the trace's cost classes")
    class_by_index = {cls.index: cls for cls in classes}
    pair_ids = set(range(trace.k))
    for name, table in (("charge", bd.charges), ("status", bd.statuses)):
        if set(table) != pair_ids:
            raise InputError(f"certificate needs exactly one {name} per pair 0..{trace.k - 1}")
    for i, b in enumerate(bd.balls):
        if b.center not in range(inst.graph.n):
            raise InputError(f"ball {i} center {b.center} is not a vertex 0..{inst.graph.n - 1}")
        if not (b.owner_pair in pair_ids and b.class_index in class_by_index):
            raise InputError(f"ball {i} names an unknown pair or class")

    # one search per ball, to its neighborhood's reach, answers both the
    # membership and the neighborhood questions
    dists = [
        Distances(inst.graph, b.center, neighborhood_reach(b.radius, bd.K))
        for b in bd.balls
    ]
    overlaps = overlapping_pairs([d.ball(b.radius) for d, b in zip(dists, bd.balls)])
    for i, j in overlaps:
        offenders.append(f"balls {i} and {j} overlap")
    disjoint = not overlaps
    neighborhoods = [
        ball_neighborhood(inst, b, bd.K, classes, d)
        for b, d in zip(bd.balls, dists)
    ]
    covered_union: set[int] = set()
    for nb in neighborhoods:
        covered_union.update(nb.members)
    dangerous = bd.dangerous
    covered = dangerous <= covered_union
    if not covered:
        stray = sorted(dangerous - covered_union)
        offenders.append(f"dangerous pairs outside every ball neighborhood: {stray}")
    before_binding = len(offenders)
    class_of = _class_of_pair(classes)
    owned: dict[int, int] = {}
    for i, b in enumerate(bd.balls):
        p = b.owner_pair
        if p in owned:
            offenders.append(f"balls {owned[p]} and {i} both belong to pair {p}")
        owned.setdefault(p, i)
        if bd.statuses[p] is not PairStatus.SURVIVING:
            offenders.append(f"ball {i} belongs to pair {p}, which is not surviving")
        if b.class_index != class_of[p]:
            offenders.append(
                f"ball {i} is in class {b.class_index}, its pair {p} in class {class_of[p]}"
            )
    unowned = sorted(
        i for i, s in bd.statuses.items() if s is PairStatus.SURVIVING and i not in owned
    )
    if unowned:
        offenders.append(f"surviving pairs without a ball: {unowned}")
    clause_a = disjoint and covered and len(offenders) == before_binding

    clause_b = True
    for i, b in enumerate(bd.balls):
        cls = class_by_index[b.class_index]
        if not (cls.radius_full / 2 <= b.radius <= cls.radius_full):
            clause_b = False
            offenders.append(
                f"ball {i} radius {b.radius} outside [r/2, r] for its class"
            )

    clause_c = True
    clause_d = True
    for i, (b, nb) in enumerate(zip(bd.balls, neighborhoods)):
        cls = class_by_index[b.class_index]
        interior_d = charged_cost(
            trace.costs, [q for q in nb.interior if q in dangerous], bd.charges
        )
        border_d = charged_cost(
            trace.costs, [q for q in nb.border if q in dangerous], bd.charges
        )
        cap_c = 10 * bd.charges[b.owner_pair] * cls.cost * L**10
        if interior_d > cap_c:
            clause_c = False
            offenders.append(f"ball {i}: dangerous interior cost exceeds its cap")
        if border_d > Fraction(10, L) * interior_d:
            clause_d = False
            offenders.append(f"ball {i}: dangerous border cost exceeds its cap")

    clause_e = True
    ball_class_of_dangerous: dict[int, int] = {}
    for b, nb in zip(bd.balls, neighborhoods):
        for q in nb.members:
            if q in dangerous:
                prev = ball_class_of_dangerous.get(q)
                if prev is None or b.class_index < prev:
                    ball_class_of_dangerous[q] = b.class_index
    for i in range(trace.k):
        ch = bd.charges[i]
        status = bd.statuses[i]
        if status is PairStatus.SURVIVING:
            if ch > SURVIVOR_CHARGE_CAP_UPPER:
                clause_e = False
                offenders.append(f"pair {i}: surviving charge {ch} exceeds 55*e^5")
            if ch < 1:
                clause_e = False
                offenders.append(f"pair {i}: surviving charge below 1")
        elif status is PairStatus.CHARGED:
            if ch != 0:
                clause_e = False
                offenders.append(f"pair {i}: charged pair carries charge {ch}")
        elif status is PairStatus.DANGEROUS:
            j = ball_class_of_dangerous.get(i)
            cap = (1 + Fraction(5, L)) ** (j - 1) if j is not None else None
            if cap is not None and ch > cap:
                clause_e = False
                offenders.append(f"pair {i}: dangerous charge {ch} exceeds its cap")
            if ch < 1:
                clause_e = False
                offenders.append(f"pair {i}: dangerous charge below 1")
        else:
            clause_e = False
            offenders.append(f"pair {i} is unclassified")
    carried = charged_cost(trace.costs, range(trace.k), bd.charges)
    if carried != trace.total_cost:
        clause_e = False
        offenders.append(
            f"charges carry {carried}, not the greedy total {trace.total_cost}"
        )

    return BalancedReport(
        disjoint_and_covered=clause_a,
        radii_in_range=clause_b,
        interior_cost_capped=clause_c,
        border_cost_capped=clause_d,
        charges_capped=clause_e,
        offenders=tuple(offenders),
    )


@dataclass(frozen=True)
class InductionReport:
    holds: bool
    lhs: Fraction
    rhs_upper: Fraction
    per_class_opt_mass: tuple[tuple[int, Fraction], ...]


def induction_bound_audit(
    bd: BalancedDual,
    opt: SteinerSolution,
    inst: Instance,
    trace: RunTrace,
    delta: int,
) -> InductionReport:
    """Evaluate the per-class bound on the total greedy cost.

    The left side is exact.  The right side multiplies exact per-class
    optimum-inside-ball masses by certified rational upper bounds on the
    constants 880*e^5 and e^(200 + 20*M/L), slackened toward acceptance:
    a reported failure is therefore a genuine one.
    """
    L = lg_plus(bd.K)
    M = len(bd.classes)
    lhs = trace.total_cost
    masses: dict[int, Fraction] = {cls.index: Fraction(0) for cls in bd.classes}
    for b in bd.balls:
        masses[b.class_index] += opt_weight_in_ball(opt, inst.graph, b.center, b.radius)
    first = Fraction(0)
    second = Fraction(0)
    for cls in bd.classes:
        mass = masses[cls.index]
        first += lg_plus(len(cls.pair_ids)) * mass
        second += delta * (M - cls.index) * mass
    rhs = 880 * E5_UPPER * first
    if second:
        rhs += exp_upper(Fraction(200) + Fraction(20 * M, L)) * second
    return InductionReport(
        holds=lhs <= rhs,
        lhs=lhs,
        rhs_upper=rhs,
        per_class_opt_mass=tuple(sorted(masses.items())),
    )


# -- serialization ------------------------------------------------------------

def balanced_to_obj(bd: BalancedDual) -> dict:
    # every event conserves the charged total, so each step is stamped with the start's
    total = format_fraction(sum((cls.cost * len(cls.pair_ids) for cls in bd.classes), Fraction(0)))
    return {
        "K": bd.K,
        "balls": [
            {
                "class": b.class_index,
                "center": b.center,
                "radius": format_fraction(b.radius),
                "pair": b.owner_pair,
            }
            for b in bd.balls
        ],
        "charges": {str(i): format_fraction(c) for i, c in sorted(bd.charges.items())},
        "statuses": {str(i): s.value for i, s in sorted(bd.statuses.items())},
        "dangerous": sorted(bd.dangerous),
        "classes": [
            {
                "index": cls.index,
                "cost": format_fraction(cls.cost),
                "pairs": list(cls.pair_ids),
                "radius_full": format_fraction(cls.radius_full),
            }
            for cls in bd.classes
        ],
        "step_log": [{**step, "charged_total": total} for step in bd.step_log],
    }


def replay(
    K: int, classes: tuple[ClassInfo, ...], centers: tuple[int, ...], step_log: list
) -> tuple[list[DualBall], dict[int, Fraction], dict[int, PairStatus]]:
    """The balls, charges and statuses a step log ends at, from every charge
    at 1 and every pair unclassified.

    Each ball-placing step gives its owner a ball in its class around the
    next of `centers`, of radius r/2, plus t*r/(200*L^2) for grow-and-defer
    with t its `increments`; r is the class's `radius_full`.  Refuses a step
    that does not apply, names a class other than its pairs', changes the
    charged total (over the pairs it names: it moves no other charge) or
    grows by an `increments` that is not a non-negative integer, and a count
    of centers other than of ball-placing steps.
    """
    cost, charges, statuses = _start(classes)
    class_of = _class_of_pair(classes)
    placed: list[tuple[int, Fraction, int]] = []  # (class, radius, owner) per ball
    for i, step in enumerate(step_log):
        try:
            change = apply_event(charges, statuses, step, cost)
            named = parse_int(step["class_index"], "class_index")
        except (GreedysfError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"step_log[{i}] does not apply: {exc!r}") from exc
        # the event applied, so its pairs are integers
        if step["event"] == "redistribute_skipped":
            pairs = step["skipped"] + step["balled"]
        else:
            pairs = [step["owner"]]
        if any(class_of.get(q) != named for q in pairs):
            raise ParseError(f"step_log[{i}] class_index {named} is not its pairs' class")
        if change:
            raise ParseError(f"step_log[{i}] changes the charged total")
        if step["event"] in ("halve_and_absorb", "grow_and_defer"):
            t = step.get("increments") if step["event"] == "grow_and_defer" else 0
            if type(t) is not int or t < 0:
                raise ParseError(f"step_log[{i}] increments must be a non-negative integer")
            # the owner's class, checked above
            placed.append((named, ball_radius(classes[named - 1], K, t), step["owner"]))
    if len(centers) != len(placed):
        raise ParseError(
            f"certificate field 'balls' has {len(centers)} centers for "
            f"{len(placed)} ball-placing steps"
        )
    balls = [DualBall(c, center, radius, p) for center, (c, radius, p) in zip(centers, placed)]
    return balls, charges, statuses


def _logged_step(i: int, step) -> dict:
    """A file step's `event`, `class_index` and event fields; the write-back checks the rest."""
    event = step.get("event") if isinstance(step, dict) else None
    if not (isinstance(event, str) and event in STEP_FIELDS):
        raise ParseError(
            f"step_log[{i}] is not an object whose event is one of {', '.join(STEP_FIELDS)}"
        )
    return {key: step[key] for key in ("event", "class_index", *STEP_FIELDS[event]) if key in step}


def obj_to_balanced(obj) -> BalancedDual:
    """The balanced dual a certificate file states.

    Parses only its inputs: `K`, each ball's `center`, each class's `cost` and
    `pairs`, and each step's `event`, `class_index` and `STEP_FIELDS`.  The
    balls, charges and statuses are where the log's replay ends, as the
    builder's are, so a file whose stated end state is not its own log's
    replay is malformed; the file, each step too, must equal `balanced_to_obj`
    of the result.  `K` must be at least 1 and not below the pair count, as
    building requires.
    """
    try:
        centers = tuple(
            parse_int(b["center"], f"balls[{i}] center")
            for i, b in enumerate(parse_list(obj["balls"], "balls"))
        )
        classes = tuple(
            ClassInfo(
                index=j + 1,
                cost=parse_fraction(c["cost"]),
                pair_ids=tuple(
                    parse_int(q, f"classes[{j}] pair")
                    for q in parse_list(c["pairs"], f"classes[{j}] pairs")
                ),
            )
            for j, c in enumerate(parse_list(obj["classes"], "classes"))
        )
        if not all(cls.pair_ids for cls in classes):
            raise ValueError("a class has no pairs, and so no radius")
        K = parse_int(obj["K"], "K")
        step_log = [
            _logged_step(i, step) for i, step in enumerate(parse_list(obj["step_log"], "step_log"))
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed balanced dual certificate: {exc}") from exc
    k = sum(len(cls.pair_ids) for cls in classes)
    if K < max(1, k):
        raise ParseError(
            f"certificate field 'K' has K={K}; K must be at least 1 and not below "
            f"the pair count {k}"
        )
    bd = BalancedDual(K, classes, centers, step_log)
    key = unwritten_field(balanced_to_obj(bd), obj, "step_log")
    if key in ("balls", "charges", "statuses"):
        raise ParseError(f"certificate field {key!r} is not where its step_log replays to")
    if key is not None:
        raise ParseError(f"certificate field {key!r} is not the writer's form of its inputs")
    return bd
