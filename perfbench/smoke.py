#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal size, both modes.

    python3 perfbench/smoke.py

Runs each workload with --smoke (two benchmarks and their edits, two fuzz cases)
untraced and traced, and checks that every check ran and passed and that
the result line follows the schema: exactly the keys correct, attempted,
failed and metrics, and exactly the metric names and units BENCHMARK.json
declares for the mode, every value a finite number and every end-to-end
value positive. It then checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys


def fail(msg):
    sys.exit(f"smoke: FAIL {msg}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                                      "--trace", trace, "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            tag = f"{w['name']} --trace {trace}"
            if out.returncode != 0:
                fail(f"{tag}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                fail(f"{tag}: metrics differ from BENCHMARK.json: missing {missing}, "
                     f"extra {extra}, or a unit differs")
            for k, v in result["metrics"].items():
                x = v["value"]
                if not isinstance(x, (int, float)) or not math.isfinite(x):
                    fail(f"{tag}: {k} = {x!r}")
                if trace == "0" and x <= 0:
                    fail(f"{tag}: end-to-end {k} = {x}")
            print(f"smoke: ok {tag}: {result['attempted']} checks", flush=True)

    # a directory with only the benchmark's own files must be refused
    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    printed_result = out.stdout.strip().startswith("{")
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or printed_result:
        fail(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print("smoke: ok bare directory refused", flush=True)


if __name__ == "__main__":
    main()
