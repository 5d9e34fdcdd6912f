#!/usr/bin/env python3
"""Builds and runs the wall-clock cluster benchmark (see README.md).

Run from the repository root:

    python3 wallbench/run.py --workload paced --seed 1 --seconds 20 --trace 0

`--workload all` runs paced, saturate and replicated in turn. The program and
the benchmark are compiled from source into the build directory (the
CARGO_TARGET_DIR environment variable if set, else .bench_build); the last
line of stdout is the benchmark's JSON verdict.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "runner.h")):
        sys.exit("wallbench: program sources not found next to " + HERE)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the verdict line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("wallbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sjoin_wallbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paced", "saturate", "replicated", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", build_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
