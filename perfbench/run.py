#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload open_uniform_4x4x4 --seed 1 \
        [--seconds S] [--trace 0|1]

The workload names are the ones in BENCHMARK.json; the harness checks
them. --seconds defaults to BENCHMARK.json's run_seconds.

The harness is built with CMake into
`$CARGO_TARGET_DIR/perfbench-<hash of this directory's path>` (default
`.bench_build/...`), so two source trees that share one target directory
never share a build; build output goes to stderr. The harness's stdout is
passed through unchanged, so the last stdout line is the JSON result. The
exit code is the harness's: non-zero when a correctness check fails, or
when the sources cannot be built.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tree = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tree)


def configured_for(bdir):
    """The source directory an existing build was configured from."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(bdir):
    """Configure unless the build is already this tree's, then build
    incrementally; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if configured_for(bdir) != HERE:
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return False
        if rc:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_rev():
    """HEAD of the repository holding this checkout, if it is one. The
    search stops at the checkout root, so nothing above it is read."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    bdir = build_dir()
    if not build(bdir):
        return 1
    cmd = [os.path.join(bdir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
