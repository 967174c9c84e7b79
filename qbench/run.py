#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 qbench/run.py --workload eq5|hidden_shift|serve --seed N --seconds S --trace 0|1
    python3 qbench/run.py --selftest

The library and the benchmark are built in Release mode into the
directory named by CARGO_TARGET_DIR, or `.bench_build` when it is unset
(the first run builds, later runs only check that the build is current).
Build output goes to stderr; the benchmark's own output goes to stdout,
and its last line is the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("configuring the benchmark failed")
    command = ["cmake", "--build", build_dir, "--target", "qbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("building the benchmark failed")
    return os.path.join(build_dir, "qbench")


def main():
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
