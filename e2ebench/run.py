#!/usr/bin/env python3
"""Build the e2ebench binary from this checkout and run one workload.

    python3 e2ebench/run.py --workload point_stream --seed 1 --seconds 10 --trace 0

The binary is configured and built (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, relative to the repository root; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Spans of a traced run (--trace 1) are
written to <build dir>/traces/. The exit code is the binary's: 0 when every
output was verified, 1 when a check failed, 2 on a usage or build error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_stream", "bulk_frames", "offline_surrogate")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def build(out_dir):
    """Configure once, then build only the benchmark and the libraries it
    links. Returns the binary's path, or None after printing why not."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no library sources under %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "e2ebench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="small shapes and short phases (self-test mode)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one reference value; the run must fail")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
