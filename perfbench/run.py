#!/usr/bin/env python3
"""Builds the cqbounds benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; it is configured on first use and brought up to date on
every call. Each
run is its own process, so peak RSS and set-up time belong to that workload.
The binary's "# " info lines are echoed; the last line of standard output
is the JSON result. A traced run also writes its spans to
<build>/traces/<workload>-<seed>.json (see breakdown.py).

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (first time) and builds the benchmark; False on failure."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a generate step has succeeded (a failed configure
    # leaves CMakeCache.txt but no build files).
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=env, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1

    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    if not args.workload:
        log("--workload is required")
        return 2
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    missing = [m for m in expected if m not in result["metrics"]]
    extra = [m for m in result["metrics"] if m not in expected]
    if missing or extra:
        log("metrics disagree with BENCHMARK.json: missing %s, extra %s"
            % (missing, extra))
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
