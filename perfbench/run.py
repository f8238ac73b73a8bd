#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload grid_147k --seed 1 --seconds 20 --trace 0

Run from the repository root. Configures perfbench/ (a standalone CMake
package that compiles the library and sympvld from ../src and ../tools)
as a Release build under .bench_build/, builds it, then runs the driver
with the same arguments. Build output goes to stderr; the driver's
stdout, whose last line is the JSON result, passes through unchanged.
Exits non-zero when the build fails or any correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "sympvld"],
        stdout=sys.stderr, env=env, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    os.makedirs(RUN_DIR, exist_ok=True)
    driver = os.path.join(BUILD, "perfbench")
    return subprocess.run([driver, *sys.argv[1:], "--run-dir", RUN_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main())
