#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seconds 2]

Checks that BENCHMARK.json is well formed, then runs a short variant of
every workload end to end (--trace 0) and the traced run once (--trace 1)
through perfbench/run.sh, and checks that:

* every name matches [A-Za-z0-9_.-]+ and is used once;
* each run prints exactly the metric names, with exactly the units, that
  BENCHMARK.json lists for its mode, every value a finite number;
* each run is correct, attempts at least one operation and fails none;
* a run leaves the files git tracks unchanged (when run in a git checkout).

Exits non-zero on the first violation.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def tracked_state():
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout


def check_manifest(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME.match(name) or len(name) > 64:
            fail(f"bad name {name!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"]):
        fail("no setup_s metric")


def check_run(bench, workload, seconds, trace):
    before = tracked_state()
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", str(seconds),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}\n{proc.stderr}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{label}: printed metrics differ from BENCHMARK.json:\n"
             f"  missing {sorted(set(want) - set(got))}\n  extra {sorted(set(got) - set(want))}\n"
             f"  unit mismatches {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} = {m['value']!r}")
    if tracked_state() != before:
        fail(f"{label} changed files git tracks")
    print(f"selftest: {label}: ok ({result['attempted']} operations)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    for w in bench["workloads"]:
        check_run(bench, w["name"], args.seconds, 0)
    check_run(bench, bench["workloads"][0]["name"], args.seconds, 1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
