#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/perfbench.exe and bin/cinderella.exe with dune, runs the
workload, and passes its standard output through. The last line is the
result object; a run that cannot build, crashes or prints no result exits
non-zero without one. Every result is also appended, with the host
fingerprint, to .perfbench/results.jsonl.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-suite", "daemon-session", "fuzz-sized")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DEADLINE_S = 170  # a run must end within 180 s, the first build aside


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.md5()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py", "dune", "dune-project", ".ml-in")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="minimal inputs: exercise every check and the schema")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", os.path.join("test", "golden")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/perfbench.exe", "./bin/cinderella.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cinderella = os.path.join(build_dir, "default", "bin", "cinderella.exe")

    rev = source_revision()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cinderella", cinderella, "--out", ".perfbench"]
    if args.smoke:
        cmd.append("--smoke")
    # its own process group, so a timeout also takes down the daemon it spawned
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PERFBENCH_REV=rev),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")

    host = {}
    for line in lines:
        if line.startswith("perfbench: host "):
            host = dict(kv.split("=", 1) for kv in line.split()[2:])
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "results.jsonl"), "a") as f:
        f.write(json.dumps({"time": time.time(), "host": host, "result": result}) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
