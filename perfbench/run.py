#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds the benchmark driver from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload. The driver's
standard output is passed through; its last line is the JSON result.
Malformed arguments exit 2; a checkout without the library sources exits 1
without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("engine_scale", "engine_mbac", "daemon_loopback", "dp_offline")


def run_timeout_s(seconds):
    """Time the driver may take: the measured phase plus traced replays,
    probes and set-up, with a margin; kills a hung run."""
    return max(90, 60 + 2 * seconds)


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", type=seconds_arg, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    value = int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"out of range: {text!r}")
    return value


def seconds_arg(text):
    value = non_negative_int(text)
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError(f"--seconds must be 1..600: {text!r}")
    return value


def build(root, build_dir):
    """Configures once, then (re)builds incrementally; logs go to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "rcbr_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "rcbr_perfbench"


def main(argv):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "sim" / "engine" / "simulation.h").is_file():
        print(f"perfbench: no RCBR sources under {root / 'src'}",
              file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    try:
        binary = build(root, target / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        return subprocess.run(
            command, timeout=run_timeout_s(args.seconds)).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
