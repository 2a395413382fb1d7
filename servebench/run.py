#!/usr/bin/env python3
"""Build and run the serve-path benchmark.

    python3 servebench/run.py --workload refresh_1shard --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --self-test

Run from the repository root.  The first call configures and builds an
optimized (Release) tree under .bench_build/servebench from the sources in
this checkout; later calls rebuild incrementally.  Build output goes to
stderr, so the benchmark's result line stays the last line of stdout.
Traced runs (--trace 1) also write their spans to
.bench_build/servebench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "fleet.h")):
        fail("repository sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD_DIR, target)


def git_describe():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    out = p.stdout.strip()
    return out if p.returncode == 0 and out else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        test = build("servebench_test")
        sys.exit(subprocess.run([test], cwd=BUILD_DIR).returncode)

    for flag in ("workload", "seed", "seconds", "trace"):
        if getattr(args, flag) is None:
            parser.error("--" + flag + " is required")
    binary = build("servebench")
    workloads = [args.workload]
    if args.workload == "all":
        listed = subprocess.run([binary, "--list"], capture_output=True,
                                text=True, check=True)
        workloads = listed.stdout.split()
    git = git_describe()
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--git", git]
        if args.trace == "1":
            name = "trace-%s-%s.json" % (workload, args.seed)
            cmd += ["--trace-out", os.path.join(BUILD_DIR, name)]
        sys.stdout.flush()
        returncode = subprocess.run(cmd).returncode
        status = status or returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
