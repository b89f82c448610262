#!/usr/bin/env python3
"""Build and run the recovery simulator's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which compiles the simulator from ../src)
with CMake into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
relative to the repository root. The first run builds; later runs only
check that the build is current. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when a correctness check failed. --self-test builds
and runs the benchmark's own unit tests instead.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cmd):
    """Runs `cmd` with its output on stderr; exits on failure."""
    rc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr).returncode
    if rc != 0:
        sys.exit(f"perfbench: command failed ({rc}): {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: simulator sources not found under {ROOT / 'src'}")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        check(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "--target", target, "-j", jobs])
    return out / target


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    binary = build("mead_perfbench")
    sys.stdout.flush()
    return subprocess.run([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
