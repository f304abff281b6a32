#!/usr/bin/env python3
"""Benchmark of the WFE-backed sharded KV engine.

Run from the repository root:

    python3 perfbench/run.py --workload read90 --seed 1 --seconds 10 --trace 0

Builds kvbench from source (CMake, into .bench_build/perfbench), runs one
workload with two closed-loop client threads and prints, as the last line of
stdout, one JSON object: correct, attempted, failed and metrics.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ladder (and writes the
sampled spans to .bench_build/perfbench/traces/).  Workloads, metrics and
bounds are declared in BENCHMARK.json at the repository root.

Timings are scaled to a reference host speed: between 50 ms windows each
client thread times lookups in a private preallocated table, and every
window's figures are scaled by that reference, so that drift in a shared
host's speed cancels out (see Reference in kvbench.cpp).  kvbench prints the
unscaled throughput and the reference's ns/op to stderr.

Exits non-zero without printing a result when the build, the run or the
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("read90", "read50", "scan64")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then rebuilds only when a source changed."""
    steps = [["cmake", "--build", BUILD, "-j", "2"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "kvbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys")
    if result["correct"] is not True:
        fail("outputs incorrect: %d of %d ops failed"
             % (result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        fail("no ops attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metric set differs from BENCHMARK.json: %s" % sorted(got))
    for name, m in got.items():
        if m["unit"] != want[name] or not m["value"] > 0:
            fail("bad metric %s: %r" % (name, m))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("kvbench timed out after %ds" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("kvbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("kvbench printed no JSON result")
    check(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
