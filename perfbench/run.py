#!/usr/bin/env python3
"""Build and run the TEA end-to-end benchmark.

    python3 perfbench/run.py --workload cold|grid|daemon --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the driver (perfbench/driver.cc, linked against the repository's
libraries) under .bench_build/; later calls only re-run the incremental
build. The driver's last stdout line -- one JSON object with the keys
correct, attempted, failed and metrics -- becomes this script's last
stdout line; everything else the build and the driver print goes to
stderr. The metric names are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
DRIVER = os.path.join(BUILD, "tea-perfbench")
# Wall-clock cap on one measured run (the caller allows 180 s).
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "tea-perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], \
        [w["name"] for w in spec["workloads"]]


def check_result(result, metrics):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("driver result has keys %s" % sorted(result))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in metrics}
    if {k: v.get("unit") for k, v in got.items()} != want:
        die("driver metrics %s do not match BENCHMARK.json %s"
            % (sorted(got), sorted(want)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("not a TEA source checkout (missing %s)" % need)
    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        die("unknown workload %r (have %s)" % (args.workload, workloads))
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK, exist_ok=True)
    # Relative to the driver's working directory (ROOT): the daemon
    # workload binds a Unix socket there, and socket paths are limited
    # to about 100 bytes however deep the checkout sits.
    work = os.path.relpath(os.path.join(WORK, args.workload), ROOT)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", work]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        die("driver exited with %d after %.1f s"
            % (proc.returncode, time.monotonic() - start))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("driver's last line is not JSON: %r" % lines[-1][:200])
    check_result(result, metrics)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
