#!/usr/bin/env python3
"""Benchmark of the greedysf workbench.

Run from the repository root:

  python3 perfbench/run.py --workload online --seed 0 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke     # reduced sizes: metric names and digests
  python3 perfbench/run.py --record    # rewrite reference.json from this tree

One run measures one workload in a fresh single-threaded worker process;
workers that only set up run before and after it, for the set-up time.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The line before it
describes the run (environment, samples, failures, work counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_EACH_SIDE = 5  # set-up-only workers started before and after the measuring one
SETUP_FASTEST = 3  # setup_s is the median of this many fastest set-ups
MEASURE_TIMEOUT_S = 165  # the whole run must end within 180 s
SETUP_TIMEOUT_S = 30
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_POOL = 40  # a pass with fewer requests than this pools several times of each
TAIL_SAMPLES = 3  # how many of each request's fastest times such a pass pools


class BenchError(Exception):
    pass


def spawn(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    env = {k: v for k, v in os.environ.items() if k not in ("STEINER_CAP_PAIRS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args[:3])} ran past {timeout} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args[:3])} exited {proc.returncode}: {err.strip()[-3000:]}")
    return json.loads(out.strip().splitlines()[-1]), start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "greedysf").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def tail(request_s: list[list[float]]) -> dict:
    """Nearest-rank percentile: the highest whole one with TAIL_BEYOND samples above it.

    `request_s` holds each request's times, fastest first.  The samples are
    each request's fastest time, or, in a pass of fewer than TAIL_POOL
    requests, its TAIL_SAMPLES fastest times; their count, and with it the
    percentile, is fixed per workload.
    """
    per_request = 1 if len(request_s) >= TAIL_POOL else TAIL_SAMPLES
    ordered = sorted(t for times in request_s for t in times[:per_request])
    pct = min(99, max(50, math.floor(100 * (1 - TAIL_BEYOND / len(ordered)))))
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return {"percentile": pct, "value": ordered[rank - 1], "samples": len(ordered),
            "beyond": len(ordered) - rank}


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str = "full"):
    """Measure one workload; return (result line, detail)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(seed)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    def setup_sample() -> float:
        ready, start = spawn(["setup", *common], SETUP_TIMEOUT_S)
        return ready["ready"] - start

    setups = [setup_sample() for _ in range(SETUP_EACH_SIDE)]
    res, start = spawn(
        ["measure", *common, "--seconds", str(seconds), "--trace", str(trace)], MEASURE_TIMEOUT_S
    )
    # the set-up-only workers use less memory, so this maximum is the measuring worker's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setups.append(res["ready"] - start)
    setups += [setup_sample() for _ in range(SETUP_EACH_SIDE)]

    request_tail = tail(res["request_s"])
    values = {
        "wall_s": res["wall_s"],
        "items_per_s": res["items"] / res["wall_s"],
        "request_s.p50": statistics.median(times[0] for times in res["request_s"]),
        "request_s.tail": request_tail["value"],
        "setup_s": statistics.median(sorted(setups)[:SETUP_FASTEST]),
        "peak_rss_mb": peak_rss_mb,
    }
    section = "end_to_end"
    if trace:
        section = "per_layer"
        values = dict(res["counts"], **res["layer"])
        queries = values["dualfit.ball_queries"]
        values["dualfit.placed_ratio"] = values["dualfit.balls"] / queries if queries else 0.0
    names = [m["name"] for m in bench[section]]
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]}
    detail = {
        "workload": workload,
        "size": size,
        "environment": env,
        "passes": res["passes"],
        "traced_passes": res["traced_passes"],
        "pass_wall_s": res["pass_wall_s"],
        "setup_s_samples": setups,
        "request_s.tail": {k: v for k, v in request_tail.items() if k != "value"},
        "fail_frac": res["failed"] / res["attempted"],
        "reference_seed_key": res["reference"],
        "counts": res["counts"],
        "counts_note": "opt.dp_masks, opt.merge_bound and opt.partitions are "
        "nominal bounds computed from each solve's input, not measured",
        "problems": res["problems"][:20],
        "unlisted_metrics": sorted(set(values) - set(names)),
    }
    if trace:
        detail["spans_file"] = res["spans_file"]
    line = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return line, detail


def print_result(line: dict, detail: dict):
    for name, metric in line["metrics"].items():
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))


def smoke() -> int:
    """Reduced sizes, one pass each: metric names and output digests."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            line, detail = run_once(workload, 0, 0, trace, size="smoke")
            unlisted = detail["unlisted_metrics"]
            good = not unlisted and line["correct"]
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAIL'}"
                  f"{f' (not in BENCHMARK.json: {unlisted})' if unlisted else ''}")
            for problem in detail["problems"]:
                print(f"  {problem}")
    return 0 if ok else 1


def record() -> int:
    """Record output digests and work counts of this tree into reference.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref = {"seed_cycle": None, "workloads": {}, "smoke": {}, "driver_files": {}}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for size in ("smoke", "full"):
            seed = 0
            while True:
                res, _ = spawn(["record", "--workload", workload, "--seed", str(seed),
                                "--size", size], MEASURE_TIMEOUT_S)
                failures += [f"{workload} {size} seed {seed}: {p}" for p in res["problems"]]
                table = ref["smoke" if size == "smoke" else "workloads"].setdefault(workload, {})
                table[res["key"]] = {"requests": res["requests"], "counts": res["counts"]}
                ref["driver_files"].update(res["files"])
                ref["seed_cycle"] = res["seed_cycle"]
                print(f"recorded {workload} {size} seed {seed}", flush=True)
                seed += 1
                if size == "smoke" or not res["seeded"] or seed >= res["seed_cycle"]:
                    break
    if failures:
        print("\n".join(failures[:50]))
        return 1
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "greedysf" / "__init__.py").is_file():
        print(f"error: no greedysf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        if not args.workload:
            parser.error("--workload is required")
        line, detail = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(line, detail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
