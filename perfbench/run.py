#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reduce77|mrc|mix --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the toolkit library from src/ plus the driver)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
the driver. Build output goes to stderr, so the last line on stdout is
the driver's JSON result. Exits nonzero, without a result, when the
checkout holds no toolkit sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt beside perfbench/; run from a full "
             "checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]]
    else:
        steps = []
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reduce77", "mrc", "mix"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number >= 0")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(build_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    # One malloc arena: with per-thread arenas the peak RSS depends on
    # which pool thread ran which task and wanders by a third between
    # identical runs.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd, env=env, cwd=ROOT))


if __name__ == "__main__":
    main()
