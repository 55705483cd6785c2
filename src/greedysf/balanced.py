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

`apply_event` is the one charge flow: the builder moves charges and sets
statuses only by applying each event it logs, and `replay` applies a
certificate's log again from every charge at 1.  Each event conserves the
total charged cost, and each logged `charged_total` is the replayed total.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

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
)
from .graph import Distances, first_overlap, overlapping_pairs
from .greedy import RunTrace, equal_cost_classes
from .instances import Instance
from .canonical import canonical_report
from .dualfit import build_class_duals
from .opt import SteinerSolution, opt_weight_in_ball


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
    radius_full: Fraction  # cost / (8 * lg_plus(class size))


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


@dataclass
class BalancedDual:
    balls: list[DualBall]
    charges: dict[int, Fraction]
    K: int
    statuses: dict[int, PairStatus]
    classes: tuple[ClassInfo, ...]
    step_log: list[dict] = field(default_factory=list)

    @property
    def dangerous(self) -> set[int]:
        return {i for i, s in self.statuses.items() if s is PairStatus.DANGEROUS}


def trace_classes(trace: RunTrace) -> tuple[ClassInfo, ...]:
    """Exact-cost classes of a trace, most expensive first, arrival order inside."""
    if any(c <= 0 for c in trace.costs):
        raise InputError("canonical traces cannot contain zero-cost pairs")
    return tuple(
        ClassInfo(
            index=idx,
            cost=cost,
            pair_ids=tuple(ids),
            radius_full=class_radius(cost, len(ids)),
        )
        for idx, (cost, ids) in enumerate(equal_cost_classes(trace), start=1)
    )


def _class_of_pair(classes: tuple[ClassInfo, ...]) -> dict[int, int]:
    return {i: cls.index for cls in classes for i in cls.pair_ids}


def charged_cost(trace: RunTrace, pair_ids, charges: dict[int, Fraction]) -> Fraction:
    """Sum of charge(p) * traced cost(p) over the given pairs."""
    return sum((charges[i] * trace.costs[i] for i in pair_ids), Fraction(0))


def _slack(K: int) -> Fraction:
    """The relative width 1/(200*L^2), L = lg_plus(K), of a ball's border band."""
    L = lg_plus(K)
    return Fraction(1, 200 * L * L)


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


def build_balanced(
    trace: RunTrace,
    inst: Instance,
    K: int,
    delta: int,
    alpha,
) -> BalancedDual:
    """Construct a balanced dual solution for a canonical instance.

    Refuses non-canonical inputs and parameter combinations outside the
    separation regime, because every clause constant depends on them.
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
    return _construct(trace, inst, K, classes)


def apply_event(charges, statuses, event: dict, cost: dict[int, Fraction]) -> None:
    """Move the charges and set the statuses for one step-log event.

    The one charge flow: the builder applies each event it logs through here
    and `replay` a certificate's log; `cost` maps a pair to its class cost.
    """
    kind = event["event"]

    def pairs(name: str) -> list[int]:
        return [parse_int(q, f"{name} pair") for q in parse_list(event[name], name)]

    if kind == "redistribute_skipped":
        skipped, balled = pairs("skipped"), pairs("balled")
        share = sum((charges[q] for q in skipped), Fraction(0)) / len(balled)
        for q in skipped:
            charges[q], statuses[q] = Fraction(0), PairStatus.CHARGED
        for p in balled:
            charges[p] += share
        return
    owner = parse_int(event["owner"], "owner")
    if kind == "delete_and_recharge":
        interior = pairs("interior")
        sigma = sum((charges[q] * cost[q] for q in interior), Fraction(0))
        factor = 1 + charges[owner] * cost[owner] / sigma
        for q in interior:
            charges[q] *= factor
        charges[owner], statuses[owner] = Fraction(0), PairStatus.CHARGED
    elif kind == "halve_and_absorb":
        for q in pairs("absorbed"):
            if statuses[q] is not PairStatus.CHARGED:  # else zero charge moves nothing
                charges[owner] += charges[q] * cost[q] / cost[owner]
                charges[q], statuses[q] = Fraction(0), PairStatus.CHARGED
        statuses[owner] = PairStatus.SURVIVING
    elif kind == "grow_and_defer":
        for q in pairs("deferred"):
            if statuses[q] is not PairStatus.UNCLASSIFIED:
                raise InternalConsistencyError(
                    f"pair {q} was already classified when ball of pair "
                    f"{owner} tried to defer it"
                )
            statuses[q] = PairStatus.DANGEROUS
        statuses[owner] = PairStatus.SURVIVING
    else:
        raise ParseError(f"unknown event {kind!r}")


def _construct(
    trace: RunTrace, inst: Instance, K: int, classes: tuple[ClassInfo, ...]
) -> BalancedDual:
    """The iterative class-by-class procedure over the trace's cost classes,
    preconditions already vetted."""
    L = lg_plus(K)
    cost = {i: cls.cost for cls in classes for i in cls.pair_ids}
    charges = {i: Fraction(1) for i in range(trace.k)}
    statuses = {i: PairStatus.UNCLASSIFIED for i in range(trace.k)}
    balls: list[DualBall] = []
    ball_members: list[frozenset[int]] = []
    log: list[dict] = []
    grow_cap = 60 * L * lg_plus(L)

    def log_event(kind: str, **fields):
        event = {"event": kind, **fields}
        apply_event(charges, statuses, event, cost)
        total = charged_cost(trace, range(trace.k), charges)
        log.append({**event, "charged_total": format_fraction(total)})

    for cls in classes:
        unclassified = [
            i for i in cls.pair_ids if statuses[i] is PairStatus.UNCLASSIFIED
        ]
        if not unclassified:
            continue
        coll, _aux = build_class_duals(trace, inst, list(cls.pair_ids), unclassified)

        if coll.skipped:
            log_event(
                "redistribute_skipped",
                class_index=cls.index,
                skipped=list(coll.skipped),
                balled=[p for _, p in coll.balls],
            )

        recharged_this_iteration: set[int] = set()
        reach = neighborhood_reach(cls.radius_full, K)
        for center, owner in coll.balls:
            ball = DualBall(
                class_index=cls.index,
                center=center,
                radius=cls.radius_full,
                owner_pair=owner,
            )
            # every ball this owner may end with has radius <= radius_full,
            # so one search to the full ball's reach answers all of them
            dist = Distances(inst.graph, center, reach)
            nb = ball_neighborhood(inst, ball, K, classes, dist)
            _check_targets_fresh(nb.members, statuses, ball)
            sigma = charged_cost(trace, nb.interior, charges)
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
                log_event(
                    "delete_and_recharge",
                    class_index=cls.index,
                    owner=owner,
                    interior=list(nb.interior),
                )
                continue
            halved = replace(ball, radius=cls.radius_full / 2)
            nb2 = ball_neighborhood(inst, halved, K, classes, dist)
            sigma2 = charged_cost(trace, nb2.members, charges)
            if sigma2 <= 10 * charges[owner] * cls.cost:
                # halve and absorb: the halved neighborhood is charged to the owner
                final = halved
                log_event(
                    "halve_and_absorb",
                    class_index=cls.index,
                    owner=owner,
                    absorbed=list(nb2.members),
                )
            else:
                # grow and defer: enlarge until the border carries little,
                # then mark the whole neighborhood dangerous
                step = cls.radius_full * _slack(K)
                t = 0
                current = halved
                nbt = nb2
                while True:
                    border_cost = charged_cost(trace, nbt.border, charges)
                    interior_cost = charged_cost(trace, nbt.interior, charges)
                    if border_cost <= Fraction(10, L) * interior_cost:
                        break
                    t += 1
                    if t >= grow_cap or current.radius + step > cls.radius_full:
                        raise InternalConsistencyError(
                            f"ball around pair {owner}: radius growth did not "
                            f"stabilize within {grow_cap} increments"
                        )
                    current = replace(current, radius=current.radius + step)
                    nbt = ball_neighborhood(inst, current, K, classes, dist)
                final = current
                log_event(
                    "grow_and_defer",
                    class_index=cls.index,
                    owner=owner,
                    increments=t,
                    deferred=list(nbt.members),
                )
            members = dist.ball(final.radius)
            prev_idx = first_overlap(ball_members, members)
            if prev_idx is not None:
                raise InternalConsistencyError(
                    f"ball of pair {final.owner_pair} overlaps ball "
                    f"{prev_idx}; the separation regime should prevent this"
                )
            balls.append(final)
            ball_members.append(members)

    leftover = [i for i, s in statuses.items() if s is PairStatus.UNCLASSIFIED]
    if leftover:
        raise InternalConsistencyError(f"pairs never classified: {leftover}")
    return BalancedDual(
        balls=balls,
        charges=charges,
        K=K,
        statuses=statuses,
        classes=classes,
        step_log=log,
    )


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

    Clause (e) also checks conservation: the charges, weighted by the traced
    costs, must sum to the greedy total, as the initial all-one charges do.
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
        known = b.owner_pair in pair_ids and b.class_index in class_by_index
        if not (known and b.center in range(inst.graph.n)):
            raise InputError(f"ball {i} names an unknown pair, class or center")

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
            trace, [q for q in nb.interior if q in dangerous], bd.charges
        )
        border_d = charged_cost(
            trace, [q for q in nb.border if q in dangerous], bd.charges
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
    carried = charged_cost(trace, range(trace.k), bd.charges)
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
        "step_log": bd.step_log,
    }


def _pair_key(key: str) -> int:
    """A pair index written as a JSON object key: a canonical decimal integer."""
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValueError(f"pair key is not a canonical index: {key!r}")
    return int(key)


def replay(classes: tuple[ClassInfo, ...], step_log: list) -> tuple[dict, dict]:
    """The charges and statuses a step log ends at, from every charge at 1 and
    every pair unclassified; refuses a step that does not apply, changes the
    charged total, or logs a `charged_total` other than the replayed one."""
    cost = {i: cls.cost for cls in classes for i in cls.pair_ids}
    charges = {i: Fraction(1) for i in cost}
    statuses = {i: PairStatus.UNCLASSIFIED for i in cost}
    start = sum(cost.values(), Fraction(0))
    for i, step in enumerate(step_log):
        try:
            apply_event(charges, statuses, step, cost)
            logged = step["charged_total"]
        except (GreedysfError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"step_log[{i}] does not apply: {exc!r}") from exc
        total = sum((charges[q] * cost[q] for q in cost), Fraction(0))
        if total != start:
            raise ParseError(f"step_log[{i}] changes the charged total")
        if logged != format_fraction(total):
            raise ParseError(f"step_log[{i}] charged_total is not the replayed total")
    return charges, statuses


def obj_to_balanced(obj) -> BalancedDual:
    try:
        balls = [
            DualBall(
                class_index=parse_int(b["class"], f"balls[{i}] class"),
                center=parse_int(b["center"], f"balls[{i}] center"),
                radius=parse_fraction(b["radius"]),
                owner_pair=parse_int(b["pair"], f"balls[{i}] pair"),
            )
            for i, b in enumerate(parse_list(obj["balls"], "balls"))
        ]
        charges = {_pair_key(i): parse_fraction(c) for i, c in obj["charges"].items()}
        statuses = {_pair_key(i): PairStatus(s) for i, s in obj["statuses"].items()}
        classes = tuple(
            ClassInfo(
                index=parse_int(c["index"], f"classes[{j}] index"),
                cost=parse_fraction(c["cost"]),
                pair_ids=tuple(
                    parse_int(q, f"classes[{j}] pair")
                    for q in parse_list(c["pairs"], f"classes[{j}] pairs")
                ),
                radius_full=parse_fraction(c["radius_full"]),
            )
            for j, c in enumerate(parse_list(obj["classes"], "classes"))
        )
        dangerous = {
            parse_int(q, "dangerous pair") for q in parse_list(obj["dangerous"], "dangerous")
        }
        bd = BalancedDual(
            balls=balls,
            charges=charges,
            K=parse_int(obj["K"], "K"),
            statuses=statuses,
            classes=classes,
            step_log=parse_list(obj["step_log"], "step_log"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed balanced dual certificate: {exc}") from exc
    # the file lists the dangerous pairs beside their statuses; the statuses own them
    if dangerous != bd.dangerous:
        raise ParseError("certificate's dangerous pairs differ from its dangerous statuses")
    replay(bd.classes, bd.step_log)
    return bd
