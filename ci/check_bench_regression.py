#!/usr/bin/env python3
"""Bench-regression guard: diff BENCH_*.json against committed baselines.

Every sweep bench writes BENCH_<name>.json with a `totals` section
(events, invocations, events_per_sec, ...). This script compares each
fresh file against `ci/bench_baselines/BENCH_<name>.json` and fails when
throughput (totals.events_per_sec) regressed by more than the threshold
(default 25%).

Throughput is wall-clock dependent, so the committed baselines are only
meaningful relative to the machine class they were recorded on; the wide
default threshold makes the gate a collapse detector (an accidental
O(n^2), a lost fast path), not a noise amplifier. The deterministic
totals (events, invocations) are additionally checked for exact equality
when the baseline records them for the same run count — those never vary
with the host, so any drift means the workload itself changed and the
baseline must be re-recorded (run with --update).

Usage:
  check_bench_regression.py [--threshold PCT] [--baseline-dir DIR]
                            [--update] BENCH_a.json [BENCH_b.json ...]
"""
import argparse
import json
import pathlib
import shutil
import sys


def load(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Per-group flatness guard for the multigroup sweep's scaled runs (fixed
# node pool, groups as the scale axis). events_per_group_per_sec is the
# *simulated-time* per-group event rate (see bench/harness.h): it stays
# near-flat exactly when adding a group adds only that group's own
# traffic. The 64-group value must stay within FLATNESS_MIN of the
# 16-group value in BOTH directions: a collapse below means per-group
# work stopped fitting in the run (lost fast path); a blow-up above means
# per-group cost grows with group count again (broadcast amplification —
# the exact quadratic this sweep exists to catch).
FLATNESS_MIN = 0.7
FLATNESS_PAIRS = [("16 groups x 3 replicas (scaled)",
                   "64 groups x 3 replicas (scaled)")]


def check_flatness(name: str, report: dict, failures: list) -> None:
    runs = {r.get("label"): r for r in report.get("runs", [])}
    for small_label, large_label in FLATNESS_PAIRS:
        small, large = runs.get(small_label), runs.get(large_label)
        if small is None or large is None:
            continue
        small_pg = small.get("events_per_group_per_sec", 0)
        large_pg = large.get("events_per_group_per_sec", 0)
        if small_pg <= 0 or large_pg <= 0:
            continue
        ratio = min(small_pg, large_pg) / max(small_pg, large_pg)
        verdict = "FAIL" if ratio < FLATNESS_MIN else "ok"
        print(f"{verdict:4s} {name}: per-group flatness "
              f"'{large_label}' vs '{small_label}' = {ratio:.2f} "
              f"(min {FLATNESS_MIN})")
        if ratio < FLATNESS_MIN:
            failures.append(name)


# Recovery-latency guard for the RM replication bench. recovery_ms is
# *simulated* time — deterministic per seed, independent of the host — so
# the budget can be tight: 10% over baseline (plus a 0.1 ms absolute
# floor) means the recovery path itself got slower, not the machine.
RM_RECOVERY_SLACK = 1.10
RM_RECOVERY_FLOOR_MS = 0.1


def check_rm_recovery(name: str, fresh: dict, base: dict,
                      failures: list) -> None:
    base_runs = {r.get("label"): r for r in base.get("runs", [])}
    for run in fresh.get("runs", []):
        b = base_runs.get(run.get("label"))
        if b is None or "recovery_ms" not in run or "recovery_ms" not in b:
            continue
        fresh_ms, base_ms = run["recovery_ms"], b["recovery_ms"]
        budget = base_ms * RM_RECOVERY_SLACK + RM_RECOVERY_FLOOR_MS
        verdict = "FAIL" if fresh_ms > budget else "ok"
        print(f"{verdict:4s} {name}: '{run['label']}' recovery "
              f"{fresh_ms:.2f} ms vs baseline {base_ms:.2f} ms "
              f"(budget {budget:.2f} ms)")
        if fresh_ms > budget:
            failures.append(name)


# Trend checks for the stateful-restore sweep — self-contained in the
# fresh BENCH_state.json (no baseline required; the generic throughput /
# deterministic-totals checks still apply once one is recorded). Three
# properties define the feature:
#   1. restore_ms grows with state size within every (scheme, interval)
#      series — transfer cost is real;
#   2. for the schemes that keep serving during the restore (the log is
#      non-trivial: mead-message, location-forward), a shorter checkpoint
#      interval means less log to replay, so restore_ms shrinks. The
#      reactive schemes idle the log during the outage, leaving the
#      interval axis nothing to measure, so they are exempt;
#   3. the proactive advantage — mean reactive replica-hole exposure
#      minus the paper's proactive scheme's (mead-message, which masks
#      the death entirely) — GROWS with state size: the bigger the
#      state, the more the restore-gated announce costs a reactive group;
#   4. checkpoint traffic pays for dirty bytes, not for the interval: at
#      every (scheme, keys), gc_bps at the fastest checkpoint interval is
#      at most STATE_CKPT_BPS_MAX times gc_bps at the slowest. A schedule
#      that ships full bases by epoch count makes this ratio grow with the
#      checkpoint rate (it was 3.12 under the old every-8-epochs rebase).
#      gc_bps is simulated bytes per simulated second, so the check is
#      exact per seed.
STATE_GROWTH_SLACK = 0.90   # tolerated dip within a rising series
STATE_SPAN_MIN = 1.3        # largest/smallest restore_ms must exceed this
STATE_FREQ_SLACK = 1.05     # restore(fast ckpt) may exceed slow by <=5%
STATE_ADV_SPAN_MIN = 1.05   # advantage(largest)/advantage(smallest)
STATE_CKPT_BPS_MAX = 2.0    # gc_bps(fastest interval)/gc_bps(slowest)
STATE_REACTIVE = ("reactive-no-cache", "reactive-cache")
STATE_PROACTIVE = "mead-message"
STATE_SERVING = ("mead-message", "location-forward")


def check_state_trends(name: str, report: dict, failures: list) -> None:
    runs = [r for r in report.get("runs", [])
            if "state_keys" in r and "restore_ms" in r]
    if not runs:
        return

    def fail(msg: str) -> None:
        print(f"FAIL {name}: {msg}")
        failures.append(name)

    keys_axis = sorted({r["state_keys"] for r in runs})
    intervals = sorted({r["ckpt_interval_ms"] for r in runs})
    schemes = sorted({r["scheme"] for r in runs})
    by = {(r["scheme"], r["state_keys"], r["ckpt_interval_ms"]): r
          for r in runs}

    # 1. restore_ms rises with state size in every (scheme, interval).
    for scheme in schemes:
        for iv in intervals:
            series = [by[(scheme, k, iv)]["restore_ms"] for k in keys_axis
                      if (scheme, k, iv) in by]
            if len(series) < 2:
                continue
            for lo, hi in zip(series, series[1:]):
                if hi < lo * STATE_GROWTH_SLACK:
                    fail(f"restore_ms not rising with state size for "
                         f"{scheme}/ckpt{iv:.0f}ms: {series}")
                    break
            else:
                if series[-1] < series[0] * STATE_SPAN_MIN:
                    fail(f"restore_ms span too flat for {scheme}/"
                         f"ckpt{iv:.0f}ms: {series} (min x{STATE_SPAN_MIN})")
                    continue
                print(f"ok   {name}: restore_ms rises with state size for "
                      f"{scheme}/ckpt{iv:.0f}ms: "
                      f"{', '.join(f'{v:.2f}' for v in series)}")

    # 2. More frequent checkpoints shrink the restore for the schemes
    #    that keep serving (shorter log replay).
    if len(intervals) >= 2:
        fast, slow = intervals[0], intervals[-1]
        for scheme in STATE_SERVING:
            for k in keys_axis:
                a, b = by.get((scheme, k, fast)), by.get((scheme, k, slow))
                if a is None or b is None:
                    continue
                if a["restore_ms"] > b["restore_ms"] * STATE_FREQ_SLACK:
                    fail(f"restore_ms did not shrink with checkpoint "
                         f"frequency for {scheme}/keys{k:.0f}: "
                         f"ckpt{fast:.0f}ms={a['restore_ms']:.2f} vs "
                         f"ckpt{slow:.0f}ms={b['restore_ms']:.2f}")
        print(f"ok   {name}: restore_ms shrinks with checkpoint frequency "
              f"for {', '.join(STATE_SERVING)}")

    # 4. Checkpoint traffic scales with dirty bytes, not the interval.
    if len(intervals) >= 2:
        fast, slow = intervals[0], intervals[-1]
        worst = 0.0
        for scheme in schemes:
            for k in keys_axis:
                a, b = by.get((scheme, k, fast)), by.get((scheme, k, slow))
                if a is None or b is None or b.get("gc_bps", 0) <= 0:
                    continue
                ratio = a["gc_bps"] / b["gc_bps"]
                worst = max(worst, ratio)
                if ratio > STATE_CKPT_BPS_MAX:
                    fail(f"checkpoint traffic scales with the interval for "
                         f"{scheme}/keys{k:.0f}: gc_bps ckpt{fast:.0f}ms / "
                         f"ckpt{slow:.0f}ms = {ratio:.2f} "
                         f"(max x{STATE_CKPT_BPS_MAX})")
        if worst <= STATE_CKPT_BPS_MAX:
            print(f"ok   {name}: gc_bps ckpt{fast:.0f}ms / ckpt{slow:.0f}ms "
                  f"<= x{STATE_CKPT_BPS_MAX} at every (scheme, keys) "
                  f"(worst {worst:.2f})")

    # 3. Proactive advantage grows with state size.
    advantages = []
    for k in keys_axis:
        reactive = [by[(s, k, iv)]["recovery_ms"] for s in STATE_REACTIVE
                    for iv in intervals if (s, k, iv) in by]
        proactive = [by[(STATE_PROACTIVE, k, iv)]["recovery_ms"]
                     for iv in intervals
                     if (STATE_PROACTIVE, k, iv) in by]
        if not reactive or not proactive:
            return
        advantages.append(sum(reactive) / len(reactive) -
                          sum(proactive) / len(proactive))
    for lo, hi in zip(advantages, advantages[1:]):
        if hi < lo * STATE_GROWTH_SLACK:
            fail(f"proactive advantage not rising with state size: "
                 f"{[f'{a:.2f}' for a in advantages]}")
            return
    if advantages and advantages[-1] < advantages[0] * STATE_ADV_SPAN_MIN:
        fail(f"proactive advantage span too flat: "
             f"{[f'{a:.2f}' for a in advantages]} (min x{STATE_ADV_SPAN_MIN})")
        return
    print(f"ok   {name}: proactive advantage rises with state size: "
          f"{', '.join(f'{a:.2f}' for a in advantages)} ms")


# Trend checks for the proactive-migration sweep — self-contained in the
# fresh BENCH_migration.json (no baseline required). Two properties
# define the feature:
#   1. the planned rotation's client-visible unavailability window stays
#      STRICTLY below the reactive window at every state size — the
#      pre-warmed standby registers before the old primary exits, so the
#      drain never reaches the client, while reactive recovery eats
#      detection + launch + restore (which grows with state size);
#   2. the kQuorum read plane is flat through a rejoin: the rejoiner
#      counts for writes immediately but is excluded from reads until
#      its catch-up completes, so the client sees EXACTLY zero
#      exceptions inside the catch-up window (deterministic sim — no
#      tolerance).
MIGRATION_MODES = ("reactive", "migration")


def check_migration_trends(name: str, report: dict, failures: list) -> None:
    runs = [r for r in report.get("runs", []) if "state_keys" in r]
    windows = {(r["label"].split("/")[0], r["state_keys"]): r["window_ms"]
               for r in runs if "window_ms" in r}
    if windows:
        keys_axis = sorted({k for (_, k) in windows})
        for k in keys_axis:
            reactive = windows.get(("reactive", k))
            migration = windows.get(("migration", k))
            if reactive is None or migration is None:
                continue
            if migration >= reactive:
                print(f"FAIL {name}: migration window not below reactive "
                      f"at keys{k:.0f}: {migration:.2f} ms vs "
                      f"{reactive:.2f} ms")
                failures.append(name)
            else:
                print(f"ok   {name}: migration window below reactive at "
                      f"keys{k:.0f} ({migration:.2f} ms < "
                      f"{reactive:.2f} ms)")
    for r in runs:
        if "catchup_exceptions" not in r:
            continue
        ex = r["catchup_exceptions"]
        if ex != 0:
            print(f"FAIL {name}: '{r['label']}' quorum read availability "
                  f"broke through the rejoin "
                  f"({ex:.0f} client exceptions in the catch-up window)")
            failures.append(name)
        else:
            print(f"ok   {name}: '{r['label']}' quorum reads flat through "
                  f"the rejoin (0 exceptions in the catch-up window)")


# O(1) placement-traffic guard for the placement sweep — self-contained
# in the fresh BENCH_placement.json (no baseline required). Frames are
# counts of deterministic simulated control traffic, so the property
# holds exactly, not within a tolerance: algorithmic placement frames are
# independent of the group count — per failure burst, the 64-group run
# publishes exactly as many alive-epoch frames as the 16-group run (the
# O(1) claim — one frame per failure, every RM replica computes the
# placement locally).
def check_placement_o1(name: str, report: dict, failures: list) -> None:
    runs = [r for r in report.get("runs", [])
            if "placement_frames" in r and "burst" in r
            and "algorithmic" in r]
    if not runs:
        return

    def fail(msg: str) -> None:
        print(f"FAIL {name}: {msg}")
        failures.append(name)

    by = {(int(r["algorithmic"]), int(r["groups"]), int(r["burst"])):
          r["placement_frames"] for r in runs}
    groups_axis = sorted({int(r["groups"]) for r in runs})
    if len(groups_axis) < 2:
        return
    small, large = groups_axis[0], groups_axis[-1]
    for burst in sorted({int(r["burst"]) for r in runs}):
        a_small = by.get((1, small, burst))
        a_large = by.get((1, large, burst))
        if a_small is not None and a_large is not None:
            if a_large != a_small:
                fail(f"algorithmic placement frames scale with groups at "
                     f"burst {burst}: {small} groups -> {a_small:.0f}, "
                     f"{large} groups -> {a_large:.0f}")
            else:
                print(f"ok   {name}: algorithmic frames O(1) in groups at "
                      f"burst {burst} ({small} and {large} groups both "
                      f"-> {a_large:.0f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", type=pathlib.Path,
                    help="fresh BENCH_*.json files to check")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="max allowed throughput regression, percent")
    ap.add_argument("--baseline-dir", type=pathlib.Path,
                    default=pathlib.Path(__file__).parent / "bench_baselines")
    ap.add_argument("--update", action="store_true",
                    help="copy the fresh files over the baselines and exit")
    args = ap.parse_args()

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in args.files:
            shutil.copy(path, args.baseline_dir / path.name)
            print(f"baseline updated: {path.name}")
        return 0

    failures = []
    for path in args.files:
        fresh = load(path)
        # Self-contained trend checks run on the fresh file alone.
        check_state_trends(path.name, fresh, failures)
        check_migration_trends(path.name, fresh, failures)
        check_placement_o1(path.name, fresh, failures)
        base_path = args.baseline_dir / path.name
        if not base_path.exists():
            print(f"SKIP {path.name}: no baseline "
                  f"(record one with --update)")
            continue
        base = load(base_path)
        check_rm_recovery(path.name, fresh, base, failures)
        ft, bt = fresh.get("totals", {}), base.get("totals", {})

        fresh_eps = ft.get("events_per_sec", 0)
        base_eps = bt.get("events_per_sec", 0)
        if base_eps > 0:
            drop = 100.0 * (base_eps - fresh_eps) / base_eps
            verdict = "FAIL" if drop > args.threshold else "ok"
            print(f"{verdict:4s} {path.name}: {fresh_eps:,} events/s vs "
                  f"baseline {base_eps:,} ({drop:+.1f}% regression, "
                  f"threshold {args.threshold:.0f}%)")
            if drop > args.threshold:
                failures.append(path.name)

        check_flatness(path.name, fresh, failures)

        # Same sweep shape => the simulated workload must be bit-identical.
        if ft.get("runs") == bt.get("runs"):
            for key in ("events", "invocations"):
                if key in bt and ft.get(key) != bt.get(key):
                    print(f"FAIL {path.name}: deterministic totals.{key} "
                          f"changed ({bt[key]} -> {ft.get(key)}); workload "
                          f"drifted — re-record the baseline if intended")
                    failures.append(path.name)

    if failures:
        print(f"\n{len(failures)} bench(es) regressed: "
              f"{', '.join(sorted(set(failures)))}", file=sys.stderr)
        return 1
    print("\nall benches within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
