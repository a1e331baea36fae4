#!/usr/bin/env python3
"""Builds the serving-path benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload city_rush --seed 1 --seconds 24 --trace 0

The first run configures and builds the repository's libraries and the
mw_perfbench binary in Release (into .bench_build); later runs only check
that the build is current. Build output goes to stderr. The binary's report
goes to stdout and its last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the binary's: nonzero on an
oracle mismatch or a failed run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city_rush", "city_lookup", "venue_rules")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/CMakeLists.txt under {ROOT}: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "mw_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "mw_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    print(f"context: git_sha={git_sha()}", flush=True)
    result = subprocess.run(command, cwd=ROOT, timeout=170)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
