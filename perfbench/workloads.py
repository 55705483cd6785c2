"""The four benchmark workloads.

Each workload builds serialized inputs from a seed (set-up), runs one pass of
public greedysf calls over them (the measured phase), and afterwards checks
the outputs independently and counts the work they represent.  Calls go
through module attributes (`greedy.run_greedy`, not a local import) so a
traced pass sees every one of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

from greedysf import balanced, cli, dualfit, graph, greedy, instances, opt, transforms
from greedysf.exact import format_fraction

RULES = (greedy.Rule.RULE1, greedy.Rule.RULE2, greedy.Rule.RULE3)

# per-layer counts computed from inputs and outputs; the opt entries are
# nominal bounds computed from each solve's input, not measured work
COUNT_METRICS = (
    "instances.bytes_in",
    "graph.subdivided_vertices",
    "graph.subdivided_edges",
    "greedy.arrivals",
    "greedy.path_hops",
    "greedy.shortcuts_added",
    "greedy.schedule_edges",
    "opt.dp_masks",
    "opt.merge_bound",
    "opt.partitions",
    "dualfit.balls",
    "dualfit.skipped",
    "dualfit.aux_edges",
    "dualfit.ball_queries",
    "balanced.balls",
    "balanced.dangerous",
    "balanced.events.halve_and_absorb",
    "balanced.events.grow_and_defer",
    "balanced.events.delete_and_recharge",
    "balanced.events.redistribute_skipped",
    "transforms.sub_pairs",
    "transforms.augment_steps",
    "cli.commands",
)


@dataclass
class Outcome:
    """What one request produced, kept for digests, checks and counts."""

    text: object  # serialized output, or a callable that serializes it later
    items: int = 1
    verdict: bool = True
    traces: list = field(default_factory=list)  # (Instance, RunTrace)
    solves: list = field(default_factory=list)  # (Instance, kind, SteinerSolution)
    subdivisions: list = field(default_factory=list)  # subdivided Instance
    collections: list = field(default_factory=list)  # (collection, aux, Instance)
    duals: list = field(default_factory=list)  # BalancedDual
    receipts: list = field(default_factory=list)  # TransformReceipt
    augment_logs: list = field(default_factory=list)
    cli_argv: list = field(default_factory=list)

    def serialized(self) -> str:
        return self.text() if callable(self.text) else self.text


@dataclass
class Request:
    label: str
    seconds: float
    error: str | None
    outcome: Outcome | None


class Pass:
    """Runs the requests of one pass, timing each and catching its failure."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.requests: list[Request] = []
        self.parse_s: dict[str, float] = {}
        self.bytes_in = 0

    def _tag(self, request_id):
        if self.tracer is not None:
            self.tracer.request = request_id

    def parse(self, name: str, text: str):
        self._tag("parse:" + name)
        self.bytes_in += len(text.encode())
        start = perf_counter()
        try:
            inst = instances.parse_instance(text)
        except Exception:  # the requests on this input then fail and are counted
            inst = None
        self.parse_s["parse:" + name] = perf_counter() - start
        return inst

    def call(self, label: str, fn, *args):
        self._tag(label)
        start = perf_counter()
        try:
            outcome, error = fn(*args), None
        except Exception as exc:  # a failed request is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        self.requests.append(Request(label, perf_counter() - start, error, outcome))
        return outcome


# -- shared helpers -----------------------------------------------------------

def _subdivided(inst):
    eta = graph.default_eta(inst.graph)
    sub, _ = graph.subdivide_edges(inst.graph, eta)
    return instances.make_instance(
        sub, [(p.s, p.t) for p in inst.pairs], [list(e) for e in inst.schedule]
    )


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _find(parent: dict, x):
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _joined(edges, groups) -> bool:
    """True iff every vertex group lies in one component of the edge set."""
    parent: dict = {}
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    return all(len({_find(parent, v) for v in group}) == 1 for group in groups)


def _is_forest(g) -> bool:
    parent: dict = {}
    for u, v, _ in g.edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def trace_problems(inst, trace) -> list[str]:
    """Independent trace checks against base-graph distances."""
    problems = []
    dist: dict[int, list] = {}
    for i, pair in enumerate(inst.pairs):
        if pair.s not in dist:
            dist[pair.s] = graph.distances_from(inst.graph, pair.s)
        d = dist[pair.s][pair.t]
        cost = trace.costs[i]
        path = trace.paths[i]
        if path[0] != pair.s or path[-1] != pair.t:
            problems.append(f"pair {i}: path does not join its endpoints")
        if d is None or cost > d:
            problems.append(f"pair {i}: cost {cost} exceeds base distance {d}")
            continue
        expected = None if cost == 0 else d / cost
        if trace.contraction[i] != expected:
            problems.append(f"pair {i}: contraction {trace.contraction[i]} != {expected}")
    if trace.total_cost != sum(trace.costs, Fraction(0)):
        problems.append("total differs from the sum of pair costs")
    return problems


def solution_problems(inst, kind: str, sol) -> list[str]:
    """The solution's weight is its edge sum and it connects what it must."""
    problems = []
    weight = sum((inst.graph.edges[i][2] for i in sol.edge_indices), Fraction(0))
    if weight != sol.weight:
        problems.append(f"{kind}: weight {sol.weight} != edge sum {weight}")
    if kind == "forest":
        groups = [(p.s, p.t) for p in inst.pairs]
    else:
        groups = [tuple(inst.terminals())]
    if not _joined(sol.edges, groups):
        problems.append(f"{kind}: solution leaves terminals disconnected")
    return problems


def outcome_problems(outcome: Outcome) -> list[str]:
    problems = [] if outcome.verdict else ["verdict is fail"]
    for inst, trace in outcome.traces:
        problems += trace_problems(inst, trace)
    for inst, kind, sol in outcome.solves:
        problems += solution_problems(inst, kind, sol)
    return problems


def outcome_counts(outcomes) -> dict[str, int]:
    """Per-layer work counts derived from the outcomes of one pass."""
    c = dict.fromkeys(COUNT_METRICS, 0)
    for o in outcomes:
        for inst, trace in o.traces:
            c["greedy.arrivals"] += trace.k
            c["greedy.path_hops"] += sum(len(p) - 1 for p in trace.paths)
            c["greedy.shortcuts_added"] += sum(len(s) for s in trace.shortcuts_added)
            c["greedy.schedule_edges"] += sum(len(row) for row in inst.schedule)
        for inst, kind, _ in o.solves:
            t = len(inst.terminals())
            if kind == "forest":
                c["opt.partitions"] += _bell(inst.k)
            if t > 1 and not _is_forest(inst.graph):
                c["opt.dp_masks"] += 2**t
                c["opt.merge_bound"] += 3**t * inst.graph.n
        for sub in o.subdivisions:
            c["graph.subdivided_vertices"] += sub.graph.n
            c["graph.subdivided_edges"] += len(sub.graph.edges)
        for coll, aux, inst in o.collections:
            c["dualfit.balls"] += len(coll.balls)
            c["dualfit.skipped"] += len(coll.skipped)
            c["dualfit.aux_edges"] += len(aux.edges)
            # a ball at s took one candidate, a ball at t two, a skip both
            c["dualfit.ball_queries"] += 2 * len(coll.skipped) + sum(
                1 if inst.pairs[p].s == center else 2 for center, p in coll.balls
            )
        for bd in o.duals:
            c["balanced.balls"] += len(bd.balls)
            c["balanced.dangerous"] += len(bd.dangerous)
            for entry in bd.step_log:
                c["balanced.events." + entry["event"]] += 1
        for receipt in o.receipts:
            c["transforms.sub_pairs"] += receipt.measured["k_new"]
        for log in o.augment_logs:
            c["transforms.augment_steps"] += len(log["steps"])
        if o.cli_argv:
            c["cli.commands"] += 1
    return c


class Workload:
    """Inputs from a seed, one pass of requests, checks and counts."""

    name = ""
    seeded = True

    def __init__(self, size: str):
        self.size = size

    def build(self, seed: int) -> dict[str, str]:
        raise NotImplementedError

    def run(self, inputs: dict[str, str], p: Pass, workdir: Path):
        raise NotImplementedError

    def collect(self, workdir: Path) -> dict[str, bytes]:
        """Files the pass wrote, read after the measured phase."""
        return {}

    def check(self, requests: list[Request], files, root: Path, recorded_files) -> list[tuple[int, str]]:
        """Independent checks of one pass, as (request index, problem) pairs.

        `recorded_files` maps the name of a file the pass writes to its
        recorded sha256 digest.
        """
        out = []
        for i, req in enumerate(requests):
            if req.outcome is not None:
                out += [(i, msg) for msg in outcome_problems(req.outcome)]
        return out

    def counts(self, requests: list[Request], bytes_in: int, files) -> dict[str, int]:
        c = outcome_counts(r.outcome for r in requests if r.outcome is not None)
        c["instances.bytes_in"] = bytes_in
        return c


# -- online -------------------------------------------------------------------

def _reveal_schedule(inst, rng: random.Random):
    """About one arrival in three reveals one edge of weight a/b, b <= 16."""
    n = inst.graph.n
    rows = []
    for _ in inst.pairs:
        row = []
        if rng.randrange(3) == 0:
            u, v = rng.sample(range(n), 2)
            b = rng.randint(1, 16)
            row.append((u, v, Fraction(rng.randint(b, 100 * b), b)))
        rows.append(row)
    return instances.make_instance(inst.graph, [(p.s, p.t) for p in inst.pairs], rows)


def _route(inst, rule):
    trace = greedy.run_greedy(inst, rule)
    return Outcome(
        text=partial(greedy.serialize_trace, trace), items=trace.k, traces=[(inst, trace)]
    )


class Online(Workload):
    """Rules 1/2/3 on random sparse instances, half of them with reveals."""

    name = "online"
    # (n, m, k, instance count) of the plain and the revealing instances
    SIZES = {
        "full": ((70, 280, 18, 16), (70, 280, 18, 16)),
        "smoke": ((30, 120, 8, 1), (24, 96, 7, 1)),
    }

    def build(self, seed):
        rng = random.Random(f"online:{seed}")
        plain, revealing = self.SIZES[self.size]
        inputs = {}
        n, m, k, count = plain
        for j in range(count):
            inst = instances.gen_random_instance(n, m, k, rng.randrange(2**32))
            inputs[f"plain{j}"] = instances.serialize_instance(inst)
        n, m, k, count = revealing
        for j in range(count):
            inst = instances.gen_random_instance(n, m, k, rng.randrange(2**32))
            inputs[f"reveal{j}"] = instances.serialize_instance(_reveal_schedule(inst, rng))
        return inputs

    def run(self, inputs, p, workdir):
        for name, text in inputs.items():
            inst = p.parse(name, text)
            for rule in RULES:
                p.call(f"{name}/rule{rule.value}", _route, inst, rule)


# -- oracle -------------------------------------------------------------------

def _solve(inst, kind, cap_terminals=None):
    if kind == "forest":
        sol = opt.steiner_forest_exact(inst)
    else:
        sol = opt.tree_optimum(inst, cap_terminals)
    return Outcome(text=partial(opt.serialize_solution, sol), solves=[(inst, kind, sol)])


class Oracle(Workload):
    """Exact forest and tree optima: subset DP graphs, a cage, and trees."""

    name = "oracle"
    # random (n, m, terminal count, pair counts), cage, trees (n, k, count)
    SIZES = {
        "full": ((30, 60, 10, (6, 7, 8)), "heawood", (400, 8, 2)),
        "smoke": ((12, 20, 6, (3, 4, 5)), "petersen", (60, 4, 1)),
    }

    def build(self, seed):
        (n, m, t, ks), cage, (tree_n, tree_k, tree_count) = self.SIZES[self.size]
        inputs = {}
        for k in ks:
            # the first instance from this seed upward with exactly t terminals,
            # since the subset DP costs 3^t
            s = 1000 * seed
            while len((inst := instances.gen_random_instance(n, m, k, s)).terminals()) != t:
                s += 1
            inputs[f"random_k{k}"] = instances.serialize_instance(inst)
        inputs[cage] = instances.serialize_instance(instances.gen_girth_lower_bound(cage))
        rng = random.Random(f"oracle:{seed}")
        for j in range(tree_count):
            inst = instances.gen_random_instance(tree_n, tree_n - 1, tree_k, rng.randrange(2**32))
            inputs[f"tree{j}"] = instances.serialize_instance(inst)
        return inputs

    def run(self, inputs, p, workdir):
        for name, text in inputs.items():
            inst = p.parse(name, text)
            p.call(f"{name}/forest", _solve, inst, "forest")
            # trees take the closed form; an explicit cap admits all their terminals
            cap = len(inst.terminals()) if inst and name.startswith("tree") else None
            p.call(f"{name}/tree", _solve, inst, "tree", cap)

    def check(self, requests, files, root, recorded_files):
        out = super().check(requests, files, root, recorded_files)
        for i in range(0, len(requests) - 1, 2):
            forest, tree = requests[i].outcome, requests[i + 1].outcome
            if forest is None or tree is None:
                continue
            inst, _, fsol = forest.solves[0]
            tsol = tree.solves[0][2]
            if fsol.weight > tsol.weight:
                out.append((i, f"forest optimum {fsol.weight} > tree optimum {tsol.weight}"))
            for rule in RULES:
                total = greedy.run_greedy(inst, rule).total_cost
                if fsol.weight > total:
                    out.append((i, f"forest optimum {fsol.weight} > rule{rule.value} total {total}"))
        return out


# -- certify ------------------------------------------------------------------

def _class_duals(inst):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    sub = _subdivided(inst)
    entries, collections, ok = [], [], True
    for _cost, pair_ids in greedy.equal_cost_classes(trace):
        coll, aux = dualfit.build_class_duals(trace, sub, pair_ids)
        report = dualfit.verify_class_duals(coll, aux, trace, sub, class_size=len(pair_ids))
        g_rep = dualfit.girth_audit(aux, coll.subset_size)
        m_rep = dualfit.moore_bound_audit(aux.skeleton())
        density_ok = not aux.edges or len(aux.edges) < 4 * len(aux.centers)
        entry_ok = report.all_ok and g_rep.holds and m_rep.consistent and density_ok
        ok = ok and entry_ok
        collections.append((coll, aux, sub))
        entries.append(
            {
                "certificate": dualfit.collection_to_obj(coll, aux),
                "clauses_ok": report.all_ok,
                "girth_ok": g_rep.holds,
                "moore_consistent": m_rep.consistent,
                "density_ok": density_ok,
                "offenders": list(report.offenders),
            }
        )
    payload = {"classes": entries, "verdict": "pass" if ok else "fail"}
    return Outcome(
        text=partial(_dumps, payload),
        verdict=ok,
        traces=[(inst, trace)],
        subdivisions=[sub],
        collections=collections,
    )


def _dual_lb(inst):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    sub = _subdivided(inst)
    sol = opt.steiner_forest_exact(inst)
    mates = instances.MateMap(sub)
    reports, collections, ok = [], [], True
    for cost, pair_ids in greedy.equal_cost_classes(trace):
        coll, aux = dualfit.build_class_duals(trace, sub, pair_ids)
        balls = [(c, coll.radius) for c, _ in coll.balls]
        rep = opt.dual_lower_bound_audit(balls, sub, mates, sol.weight)
        ok = ok and rep.bound_holds and not rep.vacuous
        collections.append((coll, aux, sub))
        reports.append(
            {
                "class_cost": format_fraction(cost),
                "sum_radii": format_fraction(rep.sum_radii),
                "bound_holds": rep.bound_holds,
                "premises_hold": rep.premises_hold,
            }
        )
    payload = {"opt": format_fraction(sol.weight), "classes": reports, "verdict": "pass" if ok else "fail"}
    return Outcome(
        text=partial(_dumps, payload),
        verdict=ok,
        traces=[(inst, trace)],
        solves=[(inst, "forest", sol)],
        subdivisions=[sub],
        collections=collections,
    )


def _balanced(inst, delta):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    bd = balanced.build_balanced(trace, inst, K=inst.k, delta=delta, alpha=1)
    report = balanced.verify_balanced(bd, trace, inst, delta)
    payload = {
        "certificate": balanced.balanced_to_obj(bd),
        "offenders": list(report.offenders),
        "verdict": "pass" if report.all_ok else "fail",
    }
    return Outcome(
        text=partial(_dumps, payload), verdict=report.all_ok, traces=[(inst, trace)], duals=[bd]
    )


def _induction(inst, delta):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    bd = balanced.build_balanced(trace, inst, K=inst.k, delta=delta, alpha=1)
    sol = opt.steiner_forest_exact(inst)
    rep = balanced.induction_bound_audit(bd, sol, inst, trace, delta)
    payload = {
        "holds": rep.holds,
        "lhs": format_fraction(rep.lhs),
        "rhs_upper": format_fraction(rep.rhs_upper),
        "per_class_opt_mass": [[j, format_fraction(m)] for j, m in rep.per_class_opt_mass],
    }
    return Outcome(
        text=partial(_dumps, payload),
        verdict=rep.holds,
        traces=[(inst, trace)],
        solves=[(inst, "forest", sol)],
        duals=[bd],
    )


def _potential(inst):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    split, receipt = transforms.subdivide_pairs_rule3(inst, trace)
    sol = opt.steiner_forest_exact(inst)
    forest, log = transforms.augment_subdivided_solution(
        sol.edge_indices, inst, trace, split, receipt
    )
    weight = sum((inst.graph.edges[ei][2] for ei in forest), Fraction(0))
    ok = all(step["non_increasing"] for step in log["steps"]) and weight <= 2 * sol.weight
    text = (
        lambda: "\n".join(
            (
                instances.serialize_instance(split),
                transforms.serialize_receipt(receipt),
                _dumps({"log": log, "verdict": "pass" if ok else "fail"}),
            )
        )
    )
    return Outcome(
        text=text,
        verdict=ok,
        traces=[(inst, trace)],
        solves=[(inst, "forest", sol)],
        receipts=[receipt],
        augment_logs=[log],
    )


def _canonicalize(inst):
    trace = greedy.run_greedy(inst, greedy.Rule.RULE3)
    out, receipt = transforms.to_canonical(inst, trace, Fraction(2), 300)
    ok = not instances.validate_instance(out) and receipt.target_digest == out.digest()
    text = (
        lambda: instances.serialize_instance(out) + "\n" + transforms.serialize_receipt(receipt)
    )
    return Outcome(text=text, verdict=ok, traces=[(inst, trace)])


class Certify(Workload):
    """Certificates on static graphs, in the order the CLI runs them."""

    name = "certify"
    SIZES = {
        "full": {
            "class_duals": (22, 55, 8, 30),
            "dual_lb_trees": (60, 5, 2),
            "balanced": (6, 8, 400),
            "induction": (2, 4, 300),
            "canonical": (60, 180, 18, 4),
        },
        "smoke": {
            "class_duals": (20, 40, 6, 2),
            "dual_lb_trees": (40, 4, 2),
            "balanced": (3, 2, 300),
            "induction": (2, 2, 300),
            "canonical": (40, 120, 12, 2),
        },
    }

    def build(self, seed):
        sz = self.SIZES[self.size]
        rng = random.Random(f"certify:{seed}")
        ser = instances.serialize_instance
        gen = instances.gen_random_instance
        inputs = {}
        n, m, k, count = sz["class_duals"]
        for j in range(count):
            inputs[f"class_duals/random{j}"] = ser(gen(n, m, k, rng.randrange(2**32)))
        n, k, count = sz["dual_lb_trees"]
        for j in range(count):
            inputs[f"dual_lb/tree{j}"] = ser(gen(n, n - 1, k, rng.randrange(2**32)))
        for cage in ("petersen", "heawood"):
            inputs[f"dual_lb/{cage}"] = ser(instances.gen_girth_lower_bound(cage))
        for kind in ("balanced", "induction"):
            classes, per_class, delta = sz[kind]
            inputs[f"{kind}/canonical"] = ser(
                instances.gen_canonical_nested(classes, per_class, delta, rng.randrange(2**32))
            )
        for cage in ("petersen", "heawood"):
            inputs[f"potential/{cage}"] = ser(instances.gen_girth_lower_bound(cage))
        n, m, k, count = sz["canonical"]
        for j in range(count):
            inputs[f"canonical/random{j}"] = ser(gen(n, m, k, rng.randrange(2**32)))
        return inputs

    def run(self, inputs, p, workdir):
        sz = self.SIZES[self.size]
        steps = {
            "class_duals": _class_duals,
            "dual_lb": _dual_lb,
            "balanced": partial(_balanced, delta=sz["balanced"][2]),
            "induction": partial(_induction, delta=sz["induction"][2]),
            "potential": _potential,
            "canonical": _canonicalize,
        }
        for name, text in inputs.items():
            p.call(name, steps[name.partition("/")[0]], p.parse(name, text))


# -- driver -------------------------------------------------------------------

DRIVER_FILES = (
    "runs.csv",
    "ratio_vs_k.csv",
    "contraction_histogram.csv",
    "balanced_certificate.json",
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(text=f"{rc}\n{out.getvalue()}{err.getvalue()}", verdict=rc == 0, cli_argv=argv)


def _compare_rules(inst):
    totals = greedy.compare_rules(inst)
    return Outcome(
        text=lambda: json.dumps({k: format_fraction(v) for k, v in totals.items()}),
        items=0,
    )


class Driver(Workload):
    """The command sequence of scripts/run_experiments.py through cli.main."""

    name = "driver"
    seeded = False
    CAGES = ("petersen", "heawood", "mcgee", "tutte_coxeter")

    def build(self, seed):
        # the script's inputs are fixed, so its outputs can match results/
        inputs = {}
        for cage in self.CAGES:
            inputs[cage] = instances.serialize_instance(instances.gen_girth_lower_bound(cage))
        for s in range(12):
            k = 1 + s % 5
            n = 7 + s % 4
            inst = instances.gen_random_instance(n, n + 3, k, s)
            inputs[f"random{s}"] = instances.serialize_instance(inst)
        return inputs

    def run(self, inputs, p, workdir):
        for name, text in inputs.items():
            (workdir / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            self._commands(inputs, p)
        finally:
            os.chdir(previous)

    def _commands(self, inputs, p):
        for cage in self.CAGES:
            for rule in ("1", "2", "3"):
                argv = ["run", "--instance", f"{cage}.json", "--rule", rule, "--csv", "runs.csv"]
                if cage in ("mcgee", "tutte_coxeter"):
                    argv.append("--no-opt")
                p.call(f"run/{cage}/rule{rule}", _cli, argv)
            p.call(f"compare_rules/{cage}", _compare_rules, p.parse(cage, inputs[cage]))
        for s in range(12):
            argv = ["run", "--instance", f"random{s}.json", "--rule", "3", "--csv", "runs.csv"]
            p.call(f"run/random{s}/rule3", _cli, argv)
        p.call("report", _cli, ["report", "--runs", "runs.csv", "--out-dir", "results"])
        p.call("generate/canonical", _cli, ["generate", "canonical", "--classes", "3",
               "--per-class", "2", "--delta", "300", "--seed", "7", "--out", "canon.json"])
        p.call("certify/balanced", _cli, ["certify", "--kind", "balanced", "--instance",
               "canon.json", "--delta", "300", "--alpha", "1",
               "--out", "results/balanced_certificate.json"])
        p.call("certify/induction-bound", _cli, ["certify", "--kind", "induction-bound",
               "--instance", "canon.json", "--delta", "300", "--alpha", "1"])

    def collect(self, workdir):
        out = {path.name: path.read_bytes() for path in workdir.glob("*.json")}
        for name in DRIVER_FILES:
            path = workdir / ("runs.csv" if name == "runs.csv" else f"results/{name}")
            out[name] = path.read_bytes() if path.exists() else b""
        return out

    def check(self, requests, files, root, recorded_files):
        out = super().check(requests, files, root, recorded_files)
        index = {req.label: i for i, req in enumerate(requests)}
        for i, req in enumerate(requests):
            if not req.label.startswith("run/") or req.outcome is None:
                continue
            try:
                row = json.loads(req.outcome.serialized().split("\n", 1)[1])
            except ValueError:
                out.append((i, "run printed no report row"))
                continue
            greedy_cost = Fraction(row["greedy_cost"])
            if row["opt_cost"]:
                if Fraction(row["opt_cost"]) > greedy_cost:
                    out.append((i, "forest optimum exceeds the greedy total"))
                if row["tstar_cost"] and Fraction(row["opt_cost"]) > Fraction(row["tstar_cost"]):
                    out.append((i, "forest optimum exceeds the tree optimum"))
        results = root / "results"
        for name in DRIVER_FILES:
            owner = index["certify/balanced" if name.endswith(".json") else "report"]
            committed = results / name
            if committed.exists() and committed.read_bytes() != files[name]:
                out.append((owner, f"{name} differs from results/{name}"))
            recorded = recorded_files.get(name)
            if recorded and hashlib.sha256(files[name]).hexdigest() != recorded:
                out.append((owner, f"{name} differs from its recorded digest"))
        return out

    def counts(self, requests, bytes_in, files):
        c = super().counts(requests, bytes_in, files)
        # each run and certify command parses the instance file it names
        for req in requests:
            argv = req.outcome.cli_argv if req.outcome else []
            if "--instance" in argv:
                c["instances.bytes_in"] += len(files.get(argv[argv.index("--instance") + 1], b""))
        cert = json.loads(files["balanced_certificate.json"] or b"{}").get("certificate", {})
        c["balanced.balls"] += len(cert.get("balls", []))
        c["balanced.dangerous"] += len(cert.get("dangerous", []))
        for entry in cert.get("step_log", []):
            c["balanced.events." + entry["event"]] += 1
        return c


WORKLOADS = {w.name: w for w in (Online, Oracle, Certify, Driver)}
