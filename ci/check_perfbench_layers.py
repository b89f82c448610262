#!/usr/bin/env python3
"""Exact per-layer counts of every perfbench workload against a baseline.

    python3 ci/check_perfbench_layers.py [--baseline FILE] [--binary BIN]
    python3 ci/check_perfbench_layers.py --update

Runs each workload named in the baseline (default
ci/perfbench_layers.json) with `--trace 1` at the baseline's seed and
run length, through perfbench/run.py or a prebuilt mead_perfbench given
with --binary, and compares the baseline's metrics exactly. These counts
(events, bytes and frames per invocation, checkpoints, trace events) come
from the first pass over all of a workload's simulations, so they do not
depend on the run length or on the host: any difference is a change in
what the simulator does. Exits non-zero on a difference or a failed
correctness check. --update rewrites the baseline from this run, for a
change that moves the counts on purpose (say why in CHANGES.md).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload, seed, seconds, binary):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1"]
    cmd = [binary] + args if binary else [
        sys.executable, str(ROOT / "perfbench" / "run.py")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no output (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload}: perfbench correctness check failed "
                 f"(exit code {proc.returncode})")
    return result["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", default=str(ROOT / "ci" / "perfbench_layers.json"))
    p.add_argument("--binary", help="a built mead_perfbench to run directly")
    p.add_argument("--update", action="store_true")
    args = p.parse_args()
    baseline_path = Path(args.baseline)
    baseline = json.loads(baseline_path.read_text())
    names = baseline["metrics"]
    failures = []
    for workload, want in baseline["workloads"].items():
        metrics = run_workload(workload, baseline["seed"], baseline["seconds"],
                               args.binary)
        got = {name: metrics[name]["value"] for name in names}
        if args.update:
            baseline["workloads"][workload] = got
            continue
        for name in names:
            status = "ok" if got[name] == want[name] else "CHANGED"
            print(f"{workload:18} {name:28} {want[name]!r:>16} -> "
                  f"{got[name]!r:<16} {status}")
            if got[name] != want[name]:
                failures.append(f"{workload} {name}")
    if args.update:
        baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated {baseline_path}")
        return 0
    if failures:
        print(f"{len(failures)} per-layer count(s) changed: " + ", ".join(failures))
        return 1
    print("per-layer counts match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
