#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [WORKLOAD ...]

Runs perfbench/run.py once per seed and workload (all workloads by
default) and prints, per metric, the median over the runs and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in names:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                iqr = f"{(q3 - q1) / med:7.3f}"
            else:
                iqr = "      -"
            bound = bounds.get(name)
            print(f"  {name:40s} median {med:14.4f}  iqr/median {iqr}"
                  + (f"  bound {bound}" if bound is not None else ""))
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
