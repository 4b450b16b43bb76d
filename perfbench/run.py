#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It configures and builds perfbench/ (the
benchmark binary plus the library sources under src/) into .bench_build/,
runs the statistics self-test, then runs one workload with the fixed
numbers from perfbench/workloads.json. The binary's output is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics. Any build failure, failed check or timeout exits
nonzero without that line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metric_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config:
        fail("unknown workload " + args.workload)
    params = config[args.workload]

    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("statistics self-test failed")

    # Fingerprints are compared across runs of the same binary and
    # workload numbers only.
    digest = hashlib.sha1(json.dumps(params, sort_keys=True).encode())
    with open(os.path.join(BUILD, "perfbench"), "rb") as f:
        digest.update(f.read())
    build_id = digest.hexdigest()[:16]
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--fingerprint-dir", os.path.join(BUILD, "fingerprints", build_id)]
    for key, value in params.items():
        cmd += ["--param", "%s=%s" % (key, value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    names = expected_metric_names(args.trace)
    if (sorted(result) != ["attempted", "correct", "failed", "metrics"]
            or result["correct"] is not True
            or sorted(result["metrics"]) != sorted(names)
            or result["attempted"] < 1):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result does not match BENCHMARK.json (metrics %s)"
             % sorted(result.get("metrics", {})))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
