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
from collections import Counter
from dataclasses import asdict, replace
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
    balanced_classes,
    balanced_to_obj,
    build_balanced,
    induction_bound_audit,
    obj_to_balanced,
    verify_balanced,
)
from .transforms import (
    augment_subdivided_solution,
    serialize_receipt,
    subdivide_pairs_rule3,
    to_canonical,
)


# the value columns of a run row, in order: each fills a fraction and a `_dec` cell
VALUE_COLUMNS = [
    "greedy_cost", "opt_cost", "tstar_cost", "ratio", "contraction_min", "contraction_max"
]
RUN_CSV_FIELDS = [
    "instance", "rule", "k", *(c for v in VALUE_COLUMNS for c in (v, f"{v}_dec")), "verdicts"
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
    sub, _ = subdivide_edges(inst.graph, default_eta(inst.graph))
    return replace(inst, graph=sub)


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
    opt_w, tstar_w, capped = None, None, False
    if not args.no_opt:
        try:
            forest, tstar_w = exact_optima(inst)
        except CapExceededError:
            capped = True
        else:
            opt_w = forest.weight
    # an infinite contraction dominates the max; the min ignores it
    finite = [c for c in trace.contraction if c is not None]
    low = min(finite) if finite else None
    high = max(finite) if finite and len(finite) == trace.k else None
    values = (trace.total_cost, opt_w, tstar_w, low, high)
    row = _run_row(inst.digest(), rule, inst.k, values, capped)
    if args.csv:
        _append_run_row(args.csv, row)
    print(json.dumps(row, sort_keys=True))
    return 0


def _run_row(digest: str, rule: Rule, k: int, values: tuple, capped: bool) -> dict:
    """The one definition of a run row, which `report` writes back from each
    row's inputs.  `values` holds greedy's cost, OPT, T* and the least and
    greatest contraction, None where absent (unbounded, for a contraction);
    `capped` says OPT was skipped at the oracle's cap.  The row derives the
    ratio greedy/OPT (absent when OPT is absent or 0), every `_dec` cell and
    `verdicts`.  `k` stays an int, as `run` prints it."""
    greedy, opt, tstar, low, high = values
    ratio = greedy / opt if opt else None
    row = {"instance": digest, "rule": f"rule{rule.value}", "k": k}
    for name, value in zip(VALUE_COLUMNS, (greedy, opt, tstar, ratio, low, high)):
        if value is None:
            row[name] = row[f"{name}_dec"] = "inf" if name.startswith("contraction_") else ""
        else:
            row[name], row[f"{name}_dec"] = format_fraction(value), frac_decimal(value)
    verdict = "" if opt is None else "opt<=greedy:" + str(opt <= greedy).lower()
    row["verdicts"] = "opt:skipped-cap" if capped else verdict
    return row


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


def _balanced_params(args, inst: Instance) -> tuple[int, Fraction, int]:
    """`--K`, `--alpha` and `--delta`, by default the pair count, 1 and 200."""
    K = inst.k if args.K is None else args.K
    alpha = Fraction(1) if args.alpha is None else args.alpha
    return K, alpha, 200 if args.delta is None else args.delta


def _certify_balanced(args, inst: Instance, trace) -> tuple[dict, bool]:
    K, alpha, delta = _balanced_params(args, inst)
    if args.certificate:
        bd = obj_to_balanced(_load_certificate(args.certificate))
        # building's preconditions hold; K sets the clauses' caps, so the command fixes it
        balanced_classes(trace, inst, K, delta, alpha)
        if bd.K != K:
            raise InputError(f"certificate has K={bd.K}, but this command has K={K}")
    else:
        bd = build_balanced(trace, inst, K=K, delta=delta, alpha=alpha)
    report = verify_balanced(bd, trace, inst, delta)
    clauses = asdict(report)
    offenders = list(clauses.pop("offenders"))
    payload = {"certificate": balanced_to_obj(bd), "clauses": clauses, "offenders": offenders}
    return payload, report.all_ok


def _certify_induction_bound(args, inst: Instance, trace) -> tuple[dict, bool]:
    K, alpha, delta = _balanced_params(args, inst)
    bd = build_balanced(trace, inst, K=K, delta=delta, alpha=alpha)
    opt = steiner_forest_exact(inst)
    rep = induction_bound_audit(bd, opt, inst, trace, delta)
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
        # a failed premise leaves the bound unchecked, and so bound_holds false
        ok = ok and rep.bound_holds
        reports.append(
            {
                "class_cost": format_fraction(cost),
                "sum_radii": format_fraction(rep.sum_radii),
                "bound_holds": rep.bound_holds,
                "premises_hold": rep.premises_hold,
                "offenders": list(rep.offenders),
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
# the flags only some kinds read, and those kinds
CERTIFY_FLAGS = {
    "certificate": ("balanced",),
    **dict.fromkeys(("K", "alpha", "delta"), ("balanced", "induction-bound")),
}
TRANSFORM_FLAGS = dict.fromkeys(("alpha", "delta"), ("canonical",))


def _refuse_unread(args, readers: dict[str, tuple[str, ...]]):
    """Exit 2 on a flag that `--kind` does not read, since it would go unread."""
    for flag, kinds in readers.items():
        if getattr(args, flag) is not None and args.kind not in kinds:
            only = " and ".join(kinds)
            raise InputError(f"--{flag} is read by --kind {only} only, not {args.kind}")


def cmd_certify(args) -> int:
    _refuse_unread(args, CERTIFY_FLAGS)
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
    _refuse_unread(args, TRANSFORM_FLAGS)
    inst = _load_instance(args.instance)
    trace = _trace_for(args, inst)
    if args.kind == "canonical":
        alpha = Fraction(2) if args.alpha is None else args.alpha
        delta = 300 if args.delta is None else args.delta
        out, receipt = to_canonical(inst, trace, alpha, delta)
    else:
        out, receipt = subdivide_pairs_rule3(inst, trace)
    _write(args.instance_out, serialize_instance(out))
    _write(args.receipt_out, serialize_receipt(receipt))
    print(f"digest {out.digest()}")
    return 0


def cmd_audit(args) -> int:
    if args.kind == "conservation":
        needed, unread = "certificate", "instance"
    else:
        needed, unread = "instance", "certificate"
    if getattr(args, needed) is None:
        raise InputError(f"audit --kind {args.kind} needs --{needed}")
    if getattr(args, unread) is not None:
        raise InputError(f"audit --kind {args.kind} does not read --{unread}")
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
        payload = {
            "totals": {k: format_fraction(v) for k, v in totals.items()},
            "whole_run_dominance": dominance,
        }
        print(json.dumps(payload, sort_keys=True))
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
        payload = {
            "potential_non_increasing": monotone,
            "final_weight": format_fraction(weight),
            "twice_opt": format_fraction(2 * opt.weight),
            "holds": ok,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0 if ok else 1
    # argparse's choices leave only "conservation"
    # the reader refuses a step that changes the total and an end state that
    # is not the log's replay, so a file it returns conserves: exit 0 says so
    bd = obj_to_balanced(_load_certificate(args.certificate))
    print(json.dumps({"steps": len(bd.step_log)}))
    return 0


def _bucket(contraction: Optional[Fraction]) -> str:
    """The histogram bucket [2^e, 2^(e+1)) of a contraction, or "inf" for None."""
    if contraction is None:
        return "inf"
    e = floor_log2(contraction)
    return f"[2^{e},2^{e + 1})"


# how `report` parses each input column of a run row, in column order; a
# value that may be absent is None in a cell of "" or "inf"
ROW_INPUTS = {
    "rule": Rule.parse,
    "k": int,
    "greedy_cost": parse_fraction,
    **dict.fromkeys(
        ("opt_cost", "tstar_cost", "contraction_min", "contraction_max"),
        lambda cell: None if cell in ("", "inf") else parse_fraction(cell),
    ),
}


def _row_inputs(r: dict) -> dict:
    """The inputs of a run CSV row, parsed.  Only a row that `_run_row` of
    them writes back cell for cell states any; any other row is refused,
    naming the first column at fault."""
    if None in r or None in r.values():
        raise ParseError(f"expected {len(RUN_CSV_FIELDS)} cells")
    if not re.fullmatch(r"[0-9a-f]{64}", r["instance"]):
        raise ParseError(f"column 'instance' is not a SHA-256 hex digest: {r['instance']!r}")
    inputs = {}
    for column, parse in ROW_INPUTS.items():
        try:
            inputs[column] = parse(r[column])
        except (GreedysfError, ValueError) as exc:
            raise ParseError(f"column {column!r} does not parse: {exc}") from exc
    rule, k, greedy, opt, tstar, low, high = inputs.values()
    capped = r["verdicts"] == "opt:skipped-cap"
    # inputs `run` never writes, which the write-back cannot see
    if k < 0:
        raise ParseError("column 'k' is negative")
    if high is not None and (low is None or low > high):
        raise ParseError("column 'contraction_min' exceeds contraction_max")
    if (capped or opt is None) and (opt, tstar) != (None, None):
        named = "opt_cost" if opt is not None else "tstar_cost"
        raise ParseError(f"column {named!r} is given, but OPT was not computed")
    written = _run_row(r["instance"], rule, k, (greedy, opt, tstar, low, high), capped)
    for column in RUN_CSV_FIELDS:
        if str(written[column]) != r[column]:
            raise ParseError(f"column {column!r} is not the writer's form of the row's inputs")
    return inputs


def cmd_report(args) -> int:
    rows, labels = [], []
    for path in args.runs:
        reader = csv.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
        if reader.fieldnames != RUN_CSV_FIELDS:
            raise GreedysfError(f"{path}: header does not follow the run-row schema")
        for r in reader:
            try:
                inputs = _row_inputs(r)
            except GreedysfError as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
            labels.extend(_bucket(inputs[c]) for c in ("contraction_min", "contraction_max"))
            rows.append(r)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = ["k", "instance", "rule", "ratio", "ratio_dec"]
    ratio_rows = sorted(
        (r for r in rows if r["ratio"] != ""),
        key=lambda r: (int(r["k"]), r["instance"], r["rule"]),
    )
    tables = {
        "ratio_vs_k.csv": [columns, *([r[c] for c in columns] for r in ratio_rows)],
        "contraction_histogram.csv": [["bucket", "count"], *sorted(Counter(labels).items())],
    }
    for name, table in tables.items():
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
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
    c.add_argument("--alpha", type=_alpha, help="balanced and induction-bound only; default 1")
    c.add_argument("--delta", type=int, help="balanced and induction-bound only; default 200")
    c.add_argument("--K", type=int, help="balanced and induction-bound only; default pair count")
    c.add_argument("--certificate", help="balanced only: verify this file instead of building")
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    t = sub.add_parser("transform", help="apply an instance transformation")
    t.add_argument("--kind", required=True, choices=["canonical", "subdivide-rule3"])
    t.add_argument("--instance", required=True)
    t.add_argument("--rule", default="3")
    t.add_argument("--trace", help="optional trace file, checked for consistency")
    t.add_argument("--alpha", type=_alpha, help="canonical only; default 2")
    t.add_argument("--delta", type=int, help="canonical only; default 300")
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
    if hasattr(sys, "set_int_max_str_digits"):
        # exact values outgrow CPython's default 4,300-digit int <-> str limit
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GreedysfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
