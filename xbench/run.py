#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Run from the root of a checkout:

    python3 xbench/run.py --workload tpch_ram --seed 1 --seconds 20 --trace 0

The first run builds the engine and the benchmark from source into
.bench_build/; later runs only check the build is current. Every run first
runs the benchmark's self-tests, then one workload in one process. The
report goes to stdout as '#' lines; the last stdout line is the result
object. Exit status is 0 only when the build, the self-tests and every
checked result succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpch_ram", "tpch_disk", "serve_ingest")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
# A run measures for --seconds and spends up to about two minutes more on
# set-up, the traced half of a traced run and the checks; a run past this
# has hung.
def run_timeout_s(seconds):
    return 130 + 2 * seconds


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, here):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found; run from the root of a checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "xbench", "xbench_selftest"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def check_names(root, metrics, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(want) != sorted(metrics):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in 1..600")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = build(root, here)

    # Engine knobs come from X100_* variables; the benchmark measures the
    # defaults, whatever the caller's environment holds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("X100_")}

    selftest = subprocess.run([os.path.join(build_dir, "xbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, env=env)
    if selftest.returncode:
        fail("benchmark self-tests failed")

    work = os.path.join(root, WORK_DIR, args.workload)
    cmd = [os.path.join(build_dir, "xbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        cmd += ["--spans",
                os.path.join(root, OUT_DIR, args.workload + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True,
                              timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("workload did not finish within %d s" %
             run_timeout_s(args.seconds))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        fail("workload's last line is not a result (exit %d)" % proc.returncode)
    check_names(root, names, args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
