#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds N] [--first-seed S] [--workload NAME ...]

Runs every (or each named) workload once per seed with the run length from
BENCHMARK.json, then prints, per metric, the median and the distance
between the first and third quartile as a share of the median -- the
figure each metric's bound is judged against. Results are appended to
.perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                    str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} failed operations")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
                  flush=True)
        summary = {}
        for metric in bounds:
            values = [r[metric] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "spread": spread, "values": values}
            flag = "" if spread <= bounds[metric] / 3 else "  <-- above a third of the bound"
            if metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
            print(f"  {name:15s} {metric:12s} median {med:10.4g}  spread {spread:.3f}"
                  f"  bound {bounds[metric]}{flag}", flush=True)
        os.makedirs(".perfbench", exist_ok=True)
        with open(os.path.join(".perfbench", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": name, "summary": summary}) + "\n")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
