#!/usr/bin/env python3
"""Build bench_step from source and run one workload of the step benchmark.

    python3 stepbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the library and bench_step under .bench_build/stepbench (Release); later
runs rebuild only what changed. Build output goes to stderr, so the last
line of stdout is bench_step's result object. Each run also writes its
full result JSON (and, traced, a Chrome trace) under .bench_build/results.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("resnet18_full", "resnet18_revolve_bitmap", "convchain_spill_sd",
             "harvest_train")
# A run must end within 180 s; leave room for the build check and teardown.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    source = os.path.join(root, "stepbench")
    configure = ["cmake", "-S", source, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "bench_step",
                 "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no library sources under %s/src" % root, file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_root, "stepbench")
    if not build(root, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    results = os.path.join(out_root, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%s-%d" % (args.workload, args.seed, args.trace,
                                    time.time_ns())
    cmd = [os.path.join(build_dir, "bench_step"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmp", os.path.join(out_root, "tmp", tag),
           "--out", os.path.join(results, tag + ".json"),
           "--calib-profile", os.path.join(out_root, "calib_profile.bin")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(results, tag + ".trace.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_step exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
