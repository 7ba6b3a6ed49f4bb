#!/usr/bin/env python3
"""Builds tinyevm_benchmark from the checkout it sits in, then runs it.

    python3 bench/e2e/run.py --workload pay_steady --seed 1 --seconds 10 --trace 0

Every argument goes to the benchmark binary (see --help there). The build
lives in $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) under the
repository root. Build output goes to stderr, so the last line of stdout is
the binary's result line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print(f"run.py: no TinyEVM source tree at {ROOT}", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "e2e")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        status = subprocess.call(
            ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if status != 0:
            return status
    status = subprocess.call(
        ["cmake", "--build", build, "--target", "tinyevm_benchmark",
         "-j", str(len(os.sched_getaffinity(0)))],
        stdout=sys.stderr)
    if status != 0:
        return status
    binary = os.path.join(build, "tinyevm_benchmark")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
