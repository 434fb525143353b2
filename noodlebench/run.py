#!/usr/bin/env python3
"""End-to-end benchmark of noodled: builds the daemon and the nbtool harness
from this source tree, then runs one workload and prints one JSON result as
the last line of stdout.

    python3 noodlebench/run.py --workload cold_tcp --seed 1 --seconds 10 --trace 0

Run it from the repository root. Workloads: cold_tcp, hot_tcp, nightly_stdin
(see noodlebench/README.md); "all" runs each in turn and prints one result
line per workload. Build output and scratch files go under .noodlebench/ in
the current directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_tcp", "hot_tcp", "nightly_stdin")


def log(message):
    print(f"noodlebench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds noodled and nbtool (incremental)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "noodled", "nbtool",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "core"),
                   os.path.join("tools", "noodled.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"source tree incomplete: {needed} missing next to noodlebench/")
            return 2

    state = os.path.abspath(".noodlebench")
    build_dir = os.path.join(state, "build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [os.path.join(build_dir, "nbtool"),
                   "--noodled", os.path.join(build_dir, "noodle", "noodled"),
                   "--work", os.path.join(state, "work", workload),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.workload == "all":
            log(f"workload {workload}")
        status = status or subprocess.run(command).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
