#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload route_serve --seed 1 --seconds 10 --trace 0

The binary is compiled from ../src with perfbench/CMakeLists.txt into the
build directory named by $CARGO_TARGET_DIR (default: .bench_build), so the
first run of a checkout builds and later runs only re-check the build.
Build output goes to stderr; the binary's stdout is passed through, and its
last line is the run's JSON result. Traced runs write their span and
hybrid-obs/1 snapshot files to <build dir>/traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds the binary; returns its path or None."""
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    out = os.path.join(build_dir(), "perfbench")
    exe = build(out)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out", traces]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
