#!/usr/bin/env python3
"""Run one perfbench workload (builds the benchmark first when needed).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark package
(perfbench/CMakeLists.txt) is configured and built in Release mode under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set);
a build whose sources are unchanged is a no-op. The driver's output is
passed through: provenance lines first, and as the last line the JSON result
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when the workload
ran; 1 when the build or the run failed, in which case no result is printed.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("h264_sweep", "h264_flight_recorder", "cmp_scaleout",
             "serve_open_loop")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, cwd, log_path):
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, cwd=cwd, stdout=log,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"command failed ({done.returncode}): {' '.join(cmd)}")


def build(root, build_dir, targets):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                    build_dir, "-DCMAKE_BUILD_TYPE=Release"], root, log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    run_logged(cmd, root, log)


def source_digest(root):
    """sha256 over the library, server and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(root, "tools", "mrts_serve.cpp"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = done.stdout.split()
    if done.returncode != 0 or len(out) != 2 or \
            os.path.realpath(out[0]) != os.path.realpath(root):
        return "unknown"
    return out[1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for required in ("src/CMakeLists.txt", "tools/mrts_serve.cpp",
                     "tests/golden"):
        if not os.path.exists(os.path.join(root, required)):
            fail(f"not a source checkout: {required} is missing")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(root, target_dir)
    build_dir = os.path.join(base, "perfbench")

    if args.self_test:
        build(root, build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")], cwd=root)
            .returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build(root, build_dir, ["perfbench_driver", "mrts_serve"])

    out_dir = os.path.relpath(os.path.join(base, "perfbench-out"), root)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--out-dir", out_dir,
           "--serve-bin", os.path.join(build_dir, "mrts_serve")]
    # Own process group: a timed-out run takes its server child with it.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or '"metrics"' not in lines[-1]:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail(f"driver exited with {proc.returncode} and no result")
    print('{"provenance": {"commit": "%s", "source_sha256": "%s"}}' %
          (commit(root), source_digest(root)))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
