#!/usr/bin/env python3
"""Build and run the ibpower repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out-dir DIR]

Configures and builds the perfbench CMake package (this directory) into
.bench_build/perfbench under the repository root, then runs one workload.
Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Reports and span dumps go to .bench_build/perfbench-out unless
--out-dir says otherwise; nothing is written to the repository root itself.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DEFAULT_OUT = os.path.join(BUILD_ROOT, "perfbench-out")
WORKLOADS = ("paper_grid", "trace_replay", "fabric_scale", "campaign_mix")


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build and run one perfbench workload.",
        allow_abbrev=False,
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=DEFAULT_OUT)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in 1..3600")
    return args


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    """Runs a build step with its output in a log; exits on failure."""
    with open(log_path, "w") as log:
        try:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(cmd))
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.hpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src")
             + "; run from a full checkout", code=2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   os.path.join(BUILD_ROOT, "perfbench-configure.log"), 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
               os.path.join(BUILD_ROOT, "perfbench-build.log"), 780)
    return os.path.join(BUILD_DIR, "perfbench")


def git_describe():
    """Source revision for the manifest; only consults this checkout's own
    git metadata (a checkout without .git reports "unknown")."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "--work-tree",
             ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    args = parse_args(argv)
    binary = build()
    os.makedirs(args.out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", args.out_dir, "--git-describe", git_describe()]
    # Set-up, warm-up, the layer pass and the self-test come on top of the
    # measured seconds; this bound only stops a hung run.
    try:
        proc = subprocess.run(cmd, timeout=max(170, 60 + 4 * args.seconds))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
