"""One benchmark process: set up a workload's inputs, then measure passes.

Started by run.py, never by hand.  It prints one JSON object as its last line
of standard output.  Modes:

  setup    build the inputs, report when they were ready, exit;
  measure  build, then run passes for --seconds (at least MIN_PASSES), check
           the outputs against reference.json and independently, and report
           times, counts and failures;
  record   build, run one pass, and report the output digests and work
           counts for reference.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SEED_CYCLE = 32  # seeds map onto this many recorded input sets
PREFIX = 16  # hex digits of each recorded sha256 digest

# span groups behind each per-layer time metric
SPAN_GROUPS = {
    "instances.parse_s": ("instances.parse_instance",),
    "graph.subdivide_s": ("graph.default_eta", "graph.subdivide_edges"),
    "greedy.run_s": ("greedy.run_greedy",),
    "opt.forest_s": ("opt.steiner_forest_exact",),
    "opt.tree_s": ("opt.tree_optimum", "opt.steiner_tree_exact"),
    "opt.ball_audit_s": ("opt.dual_lower_bound_audit",),
    "dualfit.build_s": ("dualfit.build_class_duals",),
    "dualfit.verify_s": ("dualfit.verify_class_duals",),
    "dualfit.audit_s": ("dualfit.girth_audit", "dualfit.moore_bound_audit"),
    "balanced.build_s": ("balanced.build_balanced",),
    "balanced.verify_s": ("balanced.verify_balanced",),
    "balanced.induction_s": ("balanced.induction_bound_audit",),
    "transforms.subdivide_rule3_s": ("transforms.subdivide_pairs_rule3",),
    "transforms.augment_s": ("transforms.augment_subdivided_solution",),
    "transforms.canonical_s": ("transforms.to_canonical",),
    "cli.generate_s": ("cli.cmd_generate",),
    "cli.run_s": ("cli.cmd_run",),
    "cli.certify_s": ("cli.cmd_certify",),
    "cli.report_s": ("cli.cmd_report",),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seed_key(workload, seed: int, size: str) -> str:
    if size == "smoke" or not workload.seeded:
        return "0"
    return str(seed % SEED_CYCLE)


def run_pass(workload, inputs, workdir: Path, tracer=None) -> dict:
    """One pass: parse the inputs and make every request, then digest and count."""
    from workloads import Pass

    gc.collect()
    workdir.mkdir(parents=True)
    p = Pass(tracer)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        workload.run(inputs, p, workdir)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    files = workload.collect(workdir)
    shutil.rmtree(workdir)
    digests = [
        None if r.outcome is None else sha256(r.outcome.serialized()) for r in p.requests
    ]
    return {
        "wall": wall,
        "parse_s": p.parse_s,
        "requests": p.requests,
        "digests": digests,
        "items": sum(r.outcome.items for r in p.requests if r.outcome is not None),
        "counts": workload.counts(p.requests, p.bytes_in, files),
        "files": files,
    }


def timings(result: dict) -> dict[str, float]:
    """Seconds of every parse and request of one pass, by name."""
    return dict(result["parse_s"], **{r.label: r.seconds for r in result["requests"]})


def fastest_sum(per_pass: list[dict]) -> float:
    """Sum over names of each name's minimum over the passes.

    A shared host slows a run by up to 2x in bursts shorter than one pass, so
    whole passes mostly time the neighbours; the fastest time of each request,
    taken across passes, is steady.
    """
    best: dict = {}
    for times in per_pass:
        for name, seconds in times.items():
            best[name] = min(seconds, best.get(name, seconds))
    return sum(best.values())


def remove_scratch(scratch: Path):
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:  # another worker's directory is still there
        pass


def load_reference(workload, key: str, size: str):
    path = Path(__file__).with_name("reference.json")
    ref = json.loads(path.read_text(encoding="utf-8"))
    table = ref["smoke"] if size == "smoke" else ref["workloads"]
    return table.get(workload.name, {}).get(key), ref.get("driver_files", {})


def measure(workload, inputs, args, ready: float) -> dict:
    from tracing import LAYERS, Tracer, summarize

    modules = [importlib.import_module(f"greedysf.{name}") for name in LAYERS]
    min_passes = 1 if args.size == "smoke" else MIN_PASSES
    passes, spans_out = [], []
    start = time.perf_counter()
    scratch = ROOT / ".perfbench_tmp" / f"worker-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    while True:
        # a traced run alternates untraced and traced passes, so the tracing
        # overhead compares passes made in the same stretch of the run
        traced = args.trace == 1 and len(passes) % 2 == 1
        tracer = Tracer(modules) if traced else None
        result = run_pass(workload, inputs, scratch / f"pass{len(passes)}", tracer)
        result["traced"] = traced
        if traced:
            result["layer"] = summarize(tracer.spans, SPAN_GROUPS)
            result["spans"] = len(tracer.spans)
            spans_out.append(tracer.spans)
        passes.append(result)
        needed = min_passes * (2 if args.trace == 1 else 1)
        if len(passes) >= needed and time.perf_counter() - start >= args.seconds:
            break
        # only the last pass keeps its outputs for the checks
        result["requests"] = [replace(r, outcome=None) for r in result["requests"]]
        result["files"] = {}
    remove_scratch(scratch)

    key = seed_key(workload, args.seed, args.size)
    ref, driver_files = load_reference(workload, key, args.size)
    problems: list[str] = []
    failed_ids: set[tuple[int, int]] = set()
    labels = [r.label for r in passes[0]["requests"]]
    if ref is None:
        problems.append(f"no reference recorded for seed key {key}")
    for pi, result in enumerate(passes):
        if [r.label for r in result["requests"]] != labels:
            problems.append(f"pass {pi} made a different request sequence")
        for i, (req, digest) in enumerate(zip(result["requests"], result["digests"])):
            if req.error is not None:
                failed_ids.add((pi, i))
                problems.append(f"pass {pi} {req.label}: {req.error}")
            elif ref is not None and (
                i >= len(ref["requests"])
                or digest[: len(ref["requests"][i])] != ref["requests"][i]
            ):
                failed_ids.add((pi, i))
                problems.append(f"pass {pi} {req.label}: output digest differs from the reference")
        if result["counts"] != passes[0]["counts"]:
            problems.append(f"pass {pi}: work counts differ from pass 0")
    last = passes[-1]
    for i, msg in workload.check(last["requests"], last["files"], ROOT, driver_files):
        failed_ids.add((len(passes) - 1, i))
        problems.append(f"check {labels[i]}: {msg}")
    counts = passes[0]["counts"]
    if ref is not None and ref["counts"] != counts:
        diff = sorted(k for k in counts if ref["counts"].get(k) != counts[k])
        problems.append(f"work counts differ from the reference: {diff}")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    untraced_times = [timings(p) for p in untraced]
    out = {
        "ready": ready,
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall"] for p in untraced],
        "wall_s": fastest_sum(untraced_times),
        "items": untraced[0]["items"],
        # each request's times, fastest first
        "request_s": [
            sorted(times[label] for times in untraced_times if label in times)
            for label in labels
        ],
        "attempted": sum(len(p["requests"]) for p in passes),
        "failed": len(failed_ids),
        "problems": problems,
        "counts": counts,
        "reference": key if ref is not None else None,
    }
    if traced:
        layer = {
            name: fastest_sum([p["layer"][name] for p in traced]) for name in traced[0]["layer"]
        }
        layer["trace.overhead_s"] = fastest_sum([timings(p) for p in traced]) - out["wall_s"]
        layer["trace.spans"] = traced[0]["spans"]
        out["layer"] = layer
        out["spans_file"] = write_spans(spans_out, workload.name, args.seed)
    return out


def write_spans(spans_per_pass, workload: str, seed: int) -> str:
    """Spans of every traced pass, one JSON array per line."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for pi, spans in enumerate(spans_per_pass):
            for name, start, end, parent, request in spans:
                fh.write(json.dumps([pi, name, start, end, parent, request]) + "\n")
    return str(path.relative_to(ROOT))


def record(workload, inputs, args) -> dict:
    from workloads import DRIVER_FILES

    scratch = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    result = run_pass(workload, inputs, scratch / "pass0")
    remove_scratch(scratch)
    problems = [f"{r.label}: {r.error}" for r in result["requests"] if r.error]
    labels = [r.label for r in result["requests"]]
    problems += [
        f"check {labels[i]}: {msg}"
        for i, msg in workload.check(result["requests"], result["files"], ROOT, {})
    ]
    # the seed table keeps digest prefixes; the smoke entries keep whole digests
    keep = None if args.size == "smoke" else PREFIX
    return {
        "key": seed_key(workload, args.seed, args.size),
        "seeded": workload.seeded,
        "seed_cycle": SEED_CYCLE,
        "requests": [d and d[:keep] for d in result["digests"]],
        "counts": result["counts"],
        "files": {k: sha256_bytes(v) for k, v in result["files"].items() if k in DRIVER_FILES},
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "record"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import greedysf

    if not Path(greedysf.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"greedysf was imported from outside {ROOT / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    inputs = workload.build(int(seed_key(workload, args.seed, args.size)))
    ready = time.perf_counter()
    if args.mode == "setup":
        out = {"ready": ready}
    elif args.mode == "record":
        out = record(workload, inputs, args)
    else:
        out = measure(workload, inputs, args, ready)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
