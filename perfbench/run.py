#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the driver are compiled in Release mode into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The driver
runs the workload in its own process; this script checks that it printed
exactly the metrics BENCHMARK.json names and re-prints its result as the
last line of stdout.  With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<N>.jsonl.  Any failure exits nonzero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}")
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}

    out = build_dir()
    binary = build(out)
    if binary is None or not binary.exists():
        log("build failed")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    missing = sorted(set(expected) - set(metrics))
    if unknown or (missing and not args.trace):
        log(f"metric names differ from BENCHMARK.json {key}: "
            f"unknown {unknown}, missing {missing}")
        return 1
    # A per-layer metric a workload never touches (say, VM counters on the
    # analysis path) reads 0.
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            log(f"{name}: unit {metrics[name]['unit']} != {unit}")
            return 1
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
