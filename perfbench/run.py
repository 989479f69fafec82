#!/usr/bin/env python3
"""Builds and runs the fleet-serving benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload city_commute --seed 1 --seconds 10 --trace 0

The first run configures and builds the hdmap libraries plus the benchmark
(Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the sources are missing, the build fails, or a check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("city_commute", "fleet_sync")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def clear_dir(path):
    """Removes `path` and commits the removal to disk, so the thousands of
    unlinks a run leaves behind are not still journalled while the next
    run's set-up fsyncs its checkpoint."""
    shutil.rmtree(path, ignore_errors=True)
    parent = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(parent)
    finally:
        os.close(parent)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    for required in (os.path.join(root, "src", "CMakeLists.txt"),
                     os.path.join(root, "src", "service", "map_service.h"),
                     os.path.join(bench_dir, "CMakeLists.txt")):
        if not os.path.isfile(required):
            fail("missing source file " + os.path.relpath(required, root), 2)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed", 3)
    build = ["cmake", "--build", build_dir, "--target", "fleet_bench",
             "-j", str(os.cpu_count() or 1)]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)

    work_dir = os.path.join(build_dir, "work")
    clear_dir(work_dir)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "fleet_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(build_dir,
                                       "trace_%s.json" % args.workload)]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        clear_dir(work_dir)
    sys.exit(code)


if __name__ == "__main__":
    main()
