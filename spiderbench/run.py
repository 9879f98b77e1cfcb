#!/usr/bin/env python3
"""Build the benchmark with optimisation and run one workload.

    python3 spiderbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources under src/ together with the benchmark driver into
.bench_build/ (Release); later runs only rebuild what changed. The workload
runs in its own process; its output is passed through, and its last line is
the result JSON, checked here against BENCHMARK.json's metric names and
units. Exits non-zero if the build, the run or that check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "spiderbench")


def run_timeout_s(seconds):
    """A run times whole rounds past --seconds (a model_solve pass takes up
    to 19 s) and then checks them; at the benchmark's 20 s this is 170 s."""
    return 2 * seconds + 130


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def step(cmd, log_name):
    """Runs a build step, keeping its output in a log file."""
    log_path = os.path.join(BUILD, log_name)
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("%s failed (log: %s)" % (" ".join(cmd), log_path))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], "configure.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "-j", jobs], "build.log")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative: the fleet workload's AF_UNIX socket lives there, and
           # socket paths are limited to 107 bytes.
           "--out-dir", os.path.relpath(BUILD, ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout or "")
        fail("workload did not finish within %g s" % run_timeout_s(args.seconds),
             1)
    lines = done.stdout.splitlines()
    # Everything but the result line goes through unchanged.
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail("workload exited with %d" % done.returncode, 1)

    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatches %s" % (
                 sorted(set(expected) - set(got)),
                 sorted(set(got) - set(expected)),
                 sorted(n for n in got if n in expected and got[n] != expected[n])),
             3)
    if not result["correct"] or result["attempted"] < 1:
        fail("result is not correct", 3)
    sys.stdout.flush()
    print(lines[-1])


if __name__ == "__main__":
    main()
