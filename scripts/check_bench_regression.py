#!/usr/bin/env python3
"""Gate bench_core_speed results against the committed baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.20]

Two metrics are gated (see docs/PERFORMANCE.md for the schema):

  events_per_sec    lower is a regression (wall-clock rate: noisy across
                    machines, which is why the default gate is a generous
                    20% — it catches "accidentally quadratic", not 2%).
  allocs_per_event  higher is a regression (near machine-independent: the
                    allocation count is a property of the code path, so
                    this is the sharp edge of the gate).

When the two runs share seed and virtual duration, the deterministic
counters (events, commits, peak_versions_per_key, epoch_barriers,
cross_shard_posts) must match exactly —
any drift there is a behaviour change, not a performance change, and the
golden-determinism test suite is the place to account for it.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") != "core_speed":
        sys.exit(f"{path}: not a bench_core_speed result")
    return doc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    thr = args.threshold
    failures = []

    # Schema v2 records the worker-thread count; a threads=1 baseline must
    # never be compared against a threads=4 run (or vice versa) — the wall
    # rates are different populations and the gate would be meaningless.
    bt, ft = base.get("threads", 1), fresh.get("threads", 1)
    if bt != ft:
        sys.exit(f"thread-count mismatch: baseline ran with threads={bt}, "
                 f"fresh with threads={ft}; compare like against like "
                 f"(BENCH_CORE.json gates threads=1, BENCH_PARALLEL.json "
                 f"gates threads=4)")

    def rate(name, lower_is_worse):
        b, f = base[name], fresh[name]
        delta = (f - b) / b if b else 0.0
        worse = delta < -thr if lower_is_worse else delta > thr
        mark = "FAIL" if worse else "ok"
        print(f"  {name:<22} baseline {b:>12.2f}  fresh {f:>12.2f}  "
              f"{delta:+7.1%}  {mark}")
        if worse:
            failures.append(name)

    print(f"bench-core regression gate (threshold {thr:.0%}):")
    rate("events_per_sec", lower_is_worse=True)
    rate("allocs_per_event", lower_is_worse=False)

    same_run = (base["seed"] == fresh["seed"]
                and base["virtual_duration_s"] == fresh["virtual_duration_s"])
    if same_run:
        for name in ("events", "commits", "peak_versions_per_key",
                     "epoch_barriers", "cross_shard_posts"):
            b, f = base[name], fresh[name]
            mark = "ok" if b == f else "FAIL"
            print(f"  {name:<22} baseline {b:>12}  fresh {f:>12}  "
                  f"deterministic  {mark}")
            if b != f:
                failures.append(name)
    else:
        print("  (seed/duration differ from baseline: skipping the "
              "deterministic-counter comparison)")

    if failures:
        print(f"REGRESSION: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
