#!/usr/bin/env python3
"""Build and run the AutoComm repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-repro --seed 2022 \\
        --seconds 10 --trace 0

The first call configures and builds the library together with the
benchmark driver (perfbench/src) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
reuse that build. Build output goes to stderr. The driver prints a
human-readable report and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. See BENCHMARK.json
for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-repro", "design-space", "cache-resweep", "compile-300")


def build(source_dir, build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    source_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        exe = build(source_dir, os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_root, "perfbench-work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
