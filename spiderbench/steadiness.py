#!/usr/bin/env python3
"""Run every workload repeatedly and report each end-to-end metric's spread.

    python3 spiderbench/steadiness.py [--runs 10] [--first-seed 1]
                                      [--trace-too]

Runs alternate between workloads (w1 seed s, w2 seed s, ..., w1 seed s+1,
...), each with another --seed, for BENCHMARK.json's run_seconds. For each
workload and end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median against the
metric's bound, and the share of failed ops. With --trace-too every seed is
also run traced, and the tracing overhead (traced vs untraced median of
ops_per_s) is printed. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit("%s seed %d (trace %d) exited with %d" %
                         (workload, seed, trace, done.returncode))
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in lines:
        if line.startswith("traced end-to-end (not gated): "):
            traced_e2e = json.loads(line.split(": ", 1)[1])
    return result, traced_e2e, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-too", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            result, _, wall = run_once(w, seed, seconds, 0)
            results[w].append(result)
            walls[w].append(wall)
            print("%-13s seed %-4d %5.1f s  %s" % (
                w, seed, wall, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
            if args.trace_too:
                _, e2e, _ = run_once(w, seed, seconds, 1)
                traced[w].append(e2e)

    worst = 0.0
    print("\nmetric spreads over %d seeds (spread = (q3-q1)/median)" % args.runs)
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: failed share %s, run wall median %.1f s" % (
            w, shares, statistics.median(walls[w])))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            flag = "" if s <= m["bound"] / 3 else (
                "  <-- above bound/3" if s <= m["bound"] else "  <-- ABOVE BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print("  %-17s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f)%s" % (m["name"], med, q1, q3, s, m["bound"],
                                      flag))
        if args.trace_too and traced[w]:
            plain = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in runs)
            with_trace = statistics.median(
                e["ops_per_s"]["value"] for e in traced[w])
            print("  tracing overhead: ops_per_s %.6g untraced, %.6g traced "
                  "(%.1f %%)" % (plain, with_trace,
                                 100.0 * (plain - with_trace) / plain))
    print("\nworst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
