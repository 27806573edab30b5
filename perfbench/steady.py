#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) next to the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...]

A metric is steady when its spread stays below a third of its bound
(setup_s excepted: only its median is compared between commits). Runs
happen one at a time, from the checkout root, through perfbench/run.sh.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace=0):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}, correct {correct}")
        steady &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"  {name:<16} median {med:12.3f} {metric['unit']:<4} q1 {q1:12.3f} q3 {q3:12.3f} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%} {'ok' if ok else 'WIDE'}")
            print(f"    runs: {' '.join(f'{v:.4g}' for v in values)}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
