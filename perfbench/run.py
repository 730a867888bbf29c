#!/usr/bin/env python3
"""Build and run the MoDM host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (and the library it measures) from source in
Release mode under .bench_build/, then runs one workload. Every flag is
passed to the benchmark binary; see perfbench/README.md. The last line
of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "modm_perfbench")
# Compile jobs: enough to build in a few minutes, few enough to share
# the machine.
JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    """Configure and build in Release; returns True on success."""
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(JOBS)]]
    # Configure once; the build step re-runs it when a CMakeLists changes.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workloads-dir", os.path.join(HERE, "workloads")] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
