#!/usr/bin/env python3
"""Measures what attaching the flight recorder costs an end-to-end run:
wall time of `mrts_cli run h264 4 2 32` untraced vs with `--trace`.

Run from the repo root with a build in build/:

    python3 tools/trace_overhead.py [--build DIR] [--max-ratio R]

The two modes alternate (untraced, traced, untraced, ...) so a slow spell
of the host hits both alike. Prints min/median/max wall seconds of each
mode, the best-of-5 ratio traced/untraced, the build type and the host
core count. Exits 1 when --max-ratio is given and the best-of-5 ratio
exceeds it, 2 when a run fails.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

RUN_ARGS = ["run", "h264", "4", "2", "32"]
SAMPLES = 5  # runs per mode


def build_type(build_dir):
    """CMAKE_BUILD_TYPE from the build's cache, or "unknown"."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unknown"
    except OSError:
        pass
    return "unknown"


def timed_run(cmd):
    """Wall seconds of one run; exits 2 if the run fails."""
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return elapsed


def describe(label, samples):
    return (f"{label:9s} min {min(samples):.4f} s  "
            f"median {statistics.median(samples):.4f} s  "
            f"max {max(samples):.4f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build", default="build",
                        help="CMake build directory (default build)")
    parser.add_argument("--max-ratio", type=float, default=None,
                        help="fail when best traced / best untraced exceeds")
    args = parser.parse_args()

    cli = os.path.join(args.build, "tools", "mrts_cli")
    if not os.access(cli, os.X_OK):
        sys.exit(f"error: {cli} not found (build the mrts_cli target)")

    untraced, traced = [], []
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        for _ in range(SAMPLES):
            untraced.append(timed_run([cli, *RUN_ARGS]))
            traced.append(
                timed_run([cli, *RUN_ARGS, "--trace", trace_path]))

    ratio = min(traced) / min(untraced)
    print(f"mrts_cli {' '.join(RUN_ARGS)}: {SAMPLES} samples per mode, "
          f"build type {build_type(args.build)}, "
          f"{os.cpu_count()} host core(s)")
    print(describe("untraced", untraced))
    print(describe("traced", traced))
    print(f"best-of-{SAMPLES} ratio traced/untraced: {ratio:.2f}x")
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"FAIL: ratio {ratio:.2f}x exceeds --max-ratio "
              f"{args.max_ratio:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
