#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 snfsbench/run.py --workload andrew_snfs|sort_nfs|fleet_hotset \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

The first call configures and builds the simulator libraries and the
snfsbench driver from source into $CARGO_TARGET_DIR/snfsbench (default
.bench_build/snfsbench under the repository root); later calls only let the
build tool check that nothing changed. Build output goes to stderr, so the
driver's result JSON stays the last line of stdout. The exit status is the
driver's: 0 when its correctness gate passes, non-zero otherwise (and when
the build fails, with no result printed).
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("andrew_snfs", "sort_nfs", "fleet_hotset")
DEFAULT_SEED = 1989  # matches kDefaultSeed in snfsbench.cc
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO_ROOT, target, "snfsbench")


def build():
    """Configure (once) and build; returns the driver's path or exits."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("snfsbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("snfsbench: build failed")
    return os.path.join(out, "snfsbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def driver_args(args):
    return ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            repr(args.seconds), "--trace", args.trace, "--size", args.size]


def main(argv):
    args = parse_args(argv)
    binary = build()
    sys.stdout.flush()
    try:
        result = subprocess.run([binary] + driver_args(args), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("snfsbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
