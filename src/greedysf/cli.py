"""Command-line driver: generate | run | certify | transform | audit | report.

Every command is deterministic given its inputs and recorded seeds; rerunning
writes byte-identical files.  Exit status is 0 iff all requested audits pass,
1 when a certificate clause fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import CapExceededError, GreedysfError, InputError, ParseError
from .exact import floor_log2, format_fraction, frac_decimal, parse_fraction
from .graph import default_eta, subdivide_edges
from .instances import (
    Instance,
    MateMap,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .greedy import (
    Rule,
    compare_rules,
    equal_cost_classes,
    parse_trace,
    run_greedy,
    serialize_trace,
)
from .opt import (
    dual_lower_bound_audit,
    exact_optima,
    steiner_forest_exact,
)
from .dualfit import (
    build_class_duals,
    collection_to_obj,
    girth_audit,
    moore_bound_audit,
    verify_class_duals,
)
from .balanced import (
    balanced_to_obj,
    build_balanced,
    induction_bound_audit,
    obj_to_balanced,
    replay,
    verify_balanced,
)
from .transforms import (
    augment_subdivided_solution,
    serialize_receipt,
    subdivide_pairs_rule3,
    to_canonical,
)


@dataclass(frozen=True)
class RunValues:
    """The value columns of a run row, in column order; None where absent.

    Each value fills two cells: its exact fraction under the column's name,
    and its decimal under the name plus `_dec`.  An absent value reads "" in
    both, but "inf" in a contraction column, where absent means unbounded.
    """

    greedy_cost: Fraction
    opt_cost: Optional[Fraction]
    tstar_cost: Optional[Fraction]
    ratio: Optional[Fraction]
    contraction_min: Optional[Fraction]
    contraction_max: Optional[Fraction]


RULE_CELLS = [f"rule{rule.value}" for rule in Rule]
CONTRACTION_COLUMNS = [f.name for f in fields(RunValues) if f.name.startswith("contraction_")]
RUN_CSV_FIELDS = [
    "instance",
    "rule",
    "k",
    *(cell for f in fields(RunValues) for cell in (f.name, f"{f.name}_dec")),
    "verdicts",
]


def _write(path: str, text: str):
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_text(path: str, newline=None) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def _load_certificate(path: str):
    """A certificate, bare or under the `certificate` key of a `certify --out` file."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    return obj.get("certificate", obj)


def _subdivided(inst: Instance) -> Instance:
    eta = default_eta(inst.graph)
    sub, _ = subdivide_edges(inst.graph, eta)
    return make_instance(
        sub, [(p.s, p.t) for p in inst.pairs], [list(e) for e in inst.schedule]
    )


def cmd_generate(args) -> int:
    if args.generator == "girth":
        inst = gen_girth_lower_bound(args.cage)
    elif args.generator == "random":
        inst = gen_random_instance(args.n, args.m, args.k, args.seed)
    else:
        inst = gen_canonical_nested(
            args.classes, args.per_class, args.delta, args.seed
        )
    _write(args.out, serialize_instance(inst))
    print(f"digest {inst.digest()}")
    return 0


def cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    rule = Rule.parse(args.rule)
    trace = run_greedy(inst, rule)
    if args.trace_out:
        _write(args.trace_out, serialize_trace(trace))
    opt_w = tstar_w = ratio = None
    verdicts = []
    if not args.no_opt:
        try:
            forest, tstar_w = exact_optima(inst)
        except CapExceededError:
            verdicts.append("opt:skipped-cap")
        else:
            opt_w = forest.weight
            ratio = trace.total_cost / opt_w if opt_w else None
            verdicts.append("opt<=greedy:" + str(opt_w <= trace.total_cost).lower())
    # an infinite contraction dominates the max; the min ignores it
    finite = [c for c in trace.contraction if c is not None]
    values = RunValues(
        trace.total_cost,
        opt_w,
        tstar_w,
        ratio,
        min(finite) if finite else None,
        max(finite) if finite and len(finite) == trace.k else None,
    )
    row = {"instance": inst.digest(), "rule": f"rule{rule.value}", "k": inst.k}
    for name, value in asdict(values).items():
        if value is None:
            row[name] = row[f"{name}_dec"] = "inf" if name in CONTRACTION_COLUMNS else ""
        else:
            row[name], row[f"{name}_dec"] = format_fraction(value), frac_decimal(value)
    row["verdicts"] = ";".join(verdicts)
    if args.csv:
        _append_run_row(args.csv, row)
    print(json.dumps(row, sort_keys=True))
    return 0


def _append_run_row(path: str, row: dict):
    """Append `row` to the run CSV at `path`, writing the header first when
    the file is missing or empty.  A file that starts with any other line, or
    whose last line has no newline for the row to follow, is refused and left
    as it was."""
    last = b""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            if first:
                fh.seek(-1, io.SEEK_END)
                last = fh.read(1)
    except FileNotFoundError:
        first = b""
    if first and first.rstrip(b"\r\n") != ",".join(RUN_CSV_FIELDS).encode():
        raise InputError(f"{path}: header does not follow the run-row schema")
    if first and last != b"\n":
        raise InputError(f"{path}: last line does not end in a newline")
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_CSV_FIELDS, lineterminator="\n")
        if not first:
            writer.writeheader()
        writer.writerow(row)


def _certify_class_duals(args, inst: Instance, trace) -> tuple[dict, bool]:
    sub = _subdivided(inst)
    entries = []
    ok = True
    for cost, pair_ids in equal_cost_classes(trace):
        coll, aux = build_class_duals(trace, sub, pair_ids)
        report = verify_class_duals(coll, aux, trace, sub, class_size=len(pair_ids))
        g_rep = girth_audit(aux, coll.subset_size)
        m_rep = moore_bound_audit(aux.skeleton())
        density_ok = not aux.edges or len(aux.edges) < 4 * len(aux.centers)
        entry_ok = report.all_ok and g_rep.holds and m_rep.consistent and density_ok
        ok = ok and entry_ok
        entries.append(
            {
                "certificate": collection_to_obj(coll, aux),
                "clauses_ok": report.all_ok,
                "girth_ok": g_rep.holds,
                "moore_consistent": m_rep.consistent,
                "density_ok": density_ok,
                "offenders": list(report.offenders),
            }
        )
    return {"classes": entries}, ok


def _trace_for(args, inst: Instance):
    """Recompute the run; if a trace file is given, check it equals the run
    in every field."""
    rule = Rule.parse(args.rule)
    trace = run_greedy(inst, rule)
    if args.trace:
        given = parse_trace(_read_text(args.trace))
        if given.rule is not rule:
            raise GreedysfError("trace file was recorded under a different rule")
        if given != trace:
            raise GreedysfError("trace file does not match this instance")
    return trace


def _certify_balanced(args, inst: Instance, trace) -> tuple[dict, bool]:
    K = inst.k if args.K is None else args.K
    if args.certificate:
        bd = obj_to_balanced(_load_certificate(args.certificate))
        # K sets the caps the clauses check, so the command fixes it, not the
        # file, under the precondition building checks
        if K < inst.k:
            raise InputError(f"K={K} below the pair count {inst.k}")
        if bd.K != K:
            raise InputError(f"certificate has K={bd.K}, but this command has K={K}")
    else:
        bd = build_balanced(trace, inst, K=K, delta=args.delta, alpha=args.alpha)
    report = verify_balanced(bd, trace, inst, args.delta)
    clauses = asdict(report)
    offenders = list(clauses.pop("offenders"))
    payload = {"certificate": balanced_to_obj(bd), "clauses": clauses, "offenders": offenders}
    return payload, report.all_ok


def _certify_induction_bound(args, inst: Instance, trace) -> tuple[dict, bool]:
    K = inst.k if args.K is None else args.K
    bd = build_balanced(trace, inst, K=K, delta=args.delta, alpha=args.alpha)
    opt = steiner_forest_exact(inst)
    rep = induction_bound_audit(bd, opt, inst, trace, args.delta)
    payload = {
        "holds": rep.holds,
        "lhs": format_fraction(rep.lhs),
        "rhs_upper": format_fraction(rep.rhs_upper),
        "per_class_opt_mass": [
            [j, format_fraction(m)] for j, m in rep.per_class_opt_mass
        ],
    }
    return payload, rep.holds


def _certify_dual_lb(args, inst: Instance, trace) -> tuple[dict, bool]:
    sub = _subdivided(inst)
    opt_w = steiner_forest_exact(inst).weight
    mates = MateMap(sub)
    reports = []
    ok = True
    for cost, pair_ids in equal_cost_classes(trace):
        coll, _aux = build_class_duals(trace, sub, pair_ids)
        balls = [(c, coll.radius) for c, _ in coll.balls]
        rep = dual_lower_bound_audit(balls, sub, mates, opt_w)
        ok = ok and rep.bound_holds and not rep.vacuous
        reports.append(
            {
                "class_cost": format_fraction(cost),
                "sum_radii": format_fraction(rep.sum_radii),
                "bound_holds": rep.bound_holds,
                "premises_hold": rep.premises_hold,
            }
        )
    return {"opt": format_fraction(opt_w), "classes": reports}, ok


# `certify --kind` choices, in this order, and the builder behind each
CERTIFY_KINDS = {
    "class-duals": _certify_class_duals,
    "balanced": _certify_balanced,
    "induction-bound": _certify_induction_bound,
    "dual-lb": _certify_dual_lb,
}


def cmd_certify(args) -> int:
    if args.certificate and args.kind != "balanced":
        raise InputError(f"--certificate is read by --kind balanced only, not {args.kind}")
    inst = _load_instance(args.instance)
    trace = _trace_for(args, inst)
    payload, ok = CERTIFY_KINDS[args.kind](args, inst, trace)
    payload["verdict"] = "pass" if ok else "fail"
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        _write(args.out, text)
    print(payload["verdict"])
    return 0 if ok else 1


def cmd_transform(args) -> int:
    inst = _load_instance(args.instance)
    trace = _trace_for(args, inst)
    if args.kind == "canonical":
        out, receipt = to_canonical(inst, trace, args.alpha, args.delta)
    else:
        out, receipt = subdivide_pairs_rule3(inst, trace)
    _write(args.instance_out, serialize_instance(out))
    _write(args.receipt_out, serialize_receipt(receipt))
    print(f"digest {out.digest()}")
    return 0


def cmd_audit(args) -> int:
    needed = "certificate" if args.kind == "conservation" else "instance"
    if getattr(args, needed) is None:
        raise InputError(f"audit --kind {args.kind} needs --{needed}")
    if args.kind == "moore":
        inst = _load_instance(args.instance)
        rep = moore_bound_audit(inst.graph)
        print(json.dumps({"consistent": rep.consistent, "violated_p": rep.violated_p}))
        return 0 if rep.consistent else 1
    if args.kind == "rules-compare":
        inst = _load_instance(args.instance)
        totals = compare_rules(inst)
        dominance = {
            "rule1<=rule3": totals["rule1"] <= totals["rule3"],
            "rule3<=rule2": totals["rule3"] <= totals["rule2"],
        }
        print(
            json.dumps(
                {
                    "totals": {k: format_fraction(v) for k, v in totals.items()},
                    "whole_run_dominance": dominance,
                },
                sort_keys=True,
            )
        )
        return 0  # informational: whole-run dominance is logged, not asserted
    if args.kind == "potential":
        inst = _load_instance(args.instance)
        trace = run_greedy(inst, Rule.RULE3)
        split, receipt = subdivide_pairs_rule3(inst, trace)
        opt = steiner_forest_exact(inst)
        forest, log = augment_subdivided_solution(
            opt.edge_indices, inst, trace, split, receipt
        )
        monotone = all(step["non_increasing"] for step in log["steps"])
        weight = sum((inst.graph.edges[ei][2] for ei in forest), Fraction(0))
        ok = monotone and weight <= 2 * opt.weight
        print(
            json.dumps(
                {
                    "potential_non_increasing": monotone,
                    "final_weight": format_fraction(weight),
                    "twice_opt": format_fraction(2 * opt.weight),
                    "holds": ok,
                },
                sort_keys=True,
            )
        )
        return 0 if ok else 1
    # argparse's choices leave only "conservation"
    bd = obj_to_balanced(_load_certificate(args.certificate))
    # the reader has replayed every step; the log must end where the file does
    ok = replay(bd.classes, bd.step_log) == (bd.charges, bd.statuses)
    print(json.dumps({"conserved": ok, "steps": len(bd.step_log)}))
    return 0 if ok else 1


def _bucket(contraction: str) -> str:
    """The histogram bucket [2^e, 2^(e+1)) of a contraction cell, or "inf"."""
    if contraction == "inf":
        return "inf"
    e = floor_log2(parse_fraction(contraction))
    return f"[2^{e},2^{e + 1})"


def cmd_report(args) -> int:
    rows = []
    labels = []
    for path in args.runs:
        reader = csv.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
        if reader.fieldnames != RUN_CSV_FIELDS:
            raise GreedysfError(f"{path}: header does not follow the run-row schema")
        for r in reader:
            try:
                if None in r or None in r.values():
                    raise ParseError(f"expected {len(RUN_CSV_FIELDS)} cells")
                if not re.fullmatch(r"[0-9a-f]{64}", r["instance"]):
                    raise ParseError(f"instance is not a SHA-256 hex digest: {r['instance']!r}")
                if r["rule"] not in RULE_CELLS:
                    raise ParseError(f"rule is not one of {', '.join(RULE_CELLS)}: {r['rule']!r}")
                if not re.fullmatch(r"0|[1-9][0-9]*", r["k"]):
                    raise ParseError(f"k is not an integer: {r['k']!r}")
                ratio_dec = frac_decimal(parse_fraction(r["ratio"])) if r["ratio"] else ""
                if r["ratio_dec"] != ratio_dec:
                    raise ParseError(f"ratio_dec {r['ratio_dec']!r} is not the decimal of its ratio")
                labels.extend(_bucket(r[c]) for c in CONTRACTION_COLUMNS)
            except GreedysfError as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
            rows.append(r)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ratio_rows = sorted(
        (r for r in rows if r["ratio"] != ""),
        key=lambda r: (int(r["k"]), r["instance"], r["rule"]),
    )
    with open(out_dir / "ratio_vs_k.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "instance", "rule", "ratio", "ratio_dec"])
        for r in ratio_rows:
            writer.writerow([r["k"], r["instance"], r["rule"], r["ratio"], r["ratio_dec"]])

    buckets: dict[str, int] = {}
    for label in labels:
        buckets[label] = buckets.get(label, 0) + 1
    with open(
        out_dir / "contraction_histogram.csv", "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bucket", "count"])
        for label in sorted(buckets):
            writer.writerow([label, buckets[label]])
    print(f"wrote {out_dir / 'ratio_vs_k.csv'} and {out_dir / 'contraction_histogram.csv'}")
    return 0


def _alpha(text: str) -> Fraction:
    """An integer or an integer "num/den" with a nonzero denominator."""
    m = re.fullmatch(r"(-?[0-9]+)(?:/(-?[0-9]+))?", text)
    if m is None or (m.group(2) is not None and int(m.group(2)) == 0):
        raise argparse.ArgumentTypeError(f"not an integer or num/den: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="greedysf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance file")
    gsub = g.add_subparsers(dest="generator", required=True)
    gg = gsub.add_parser("girth")
    gg.add_argument("--cage", required=True)
    gg.add_argument("--out", required=True)
    gr = gsub.add_parser("random")
    for flag in ("--n", "--m", "--k", "--seed"):
        gr.add_argument(flag, type=int, required=True)
    gr.add_argument("--out", required=True)
    gc = gsub.add_parser("canonical")
    gc.add_argument("--classes", type=int, required=True)
    gc.add_argument("--per-class", dest="per_class", type=int, required=True)
    gc.add_argument("--delta", type=int, required=True)
    gc.add_argument("--seed", type=int, required=True)
    gc.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run greedy and append a report row")
    r.add_argument("--instance", required=True)
    r.add_argument("--rule", required=True)
    r.add_argument("--trace-out", dest="trace_out")
    r.add_argument("--csv")
    r.add_argument("--no-opt", dest="no_opt", action="store_true")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("certify", help="build and verify a certificate")
    c.add_argument(
        "--kind",
        required=True,
        choices=list(CERTIFY_KINDS),
    )
    c.add_argument("--instance", required=True)
    c.add_argument("--rule", default="3")
    c.add_argument("--trace", help="optional trace file, checked for consistency")
    c.add_argument("--alpha", type=_alpha, default="1/1")
    c.add_argument("--delta", type=int, default=200)
    c.add_argument("--K", type=int)
    c.add_argument("--certificate", help="balanced only: verify this file instead of building")
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    t = sub.add_parser("transform", help="apply an instance transformation")
    t.add_argument("--kind", required=True, choices=["canonical", "subdivide-rule3"])
    t.add_argument("--instance", required=True)
    t.add_argument("--rule", default="3")
    t.add_argument("--trace", help="optional trace file, checked for consistency")
    t.add_argument("--alpha", type=_alpha, default="2/1")
    t.add_argument("--delta", type=int, default=300)
    t.add_argument("--instance-out", dest="instance_out", required=True)
    t.add_argument("--receipt-out", dest="receipt_out", required=True)
    t.set_defaults(func=cmd_transform)

    a = sub.add_parser("audit", help="run a standalone audit")
    a.add_argument(
        "--kind",
        required=True,
        choices=["moore", "rules-compare", "potential", "conservation"],
    )
    a.add_argument("--instance")
    a.add_argument("--certificate")
    a.set_defaults(func=cmd_audit)

    rep = sub.add_parser("report", help="aggregate run CSVs into plot-ready tables")
    rep.add_argument("--runs", nargs="+", required=True)
    rep.add_argument("--out-dir", dest="out_dir", required=True)
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GreedysfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
