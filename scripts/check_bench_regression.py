#!/usr/bin/env python3
"""Gate a bench result against its committed baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.20]

Two bench kinds are accepted, named by the result's "bench" field; a
baseline is only ever compared with a fresh result of the same kind (see
docs/PERFORMANCE.md for both schemas).

bench_core_speed ("core_speed") — three metrics are gated:

  events_per_sec    lower is a regression (wall-clock rate: noisy across
                    machines, which is why the default gate is a generous
                    20% — it catches "accidentally quadratic", not 2%).
  allocs_per_event  higher is a regression (near machine-independent: the
                    allocation count is a property of the code path, so
                    this is the sharp edge of the gate).
  peak_rss_mb       higher is a regression (process high-water RSS; the
                    run-to-run spread is well under 1%, so the gate
                    catches any structure that grows per key or per event).

Results are compared only like against like: the same schema version,
thread count and transport mode (`wire`). BENCH_CORE.json gates threads=1,
BENCH_PARALLEL.json threads=4, BENCH_WIRE.json `--wire` at threads=1.

When the two runs share seed and virtual duration, the deterministic
counters (events, commits, peak_versions_per_key, store_keys,
epoch_barriers, cross_shard_posts) must match exactly —
any drift there is a behaviour change, not a performance change, and the
golden-determinism test suite is the place to account for it.

bench_wal_append ("wal_append") — every row of the baseline (append,
decision quorums, scan, replay, checkpoint) must be present in the fresh
run; its records_per_sec is gated at the same threshold, lower being
a regression. Each row's log_bytes is a deterministic size and must match
exactly. BENCH_WAL.json is the full-size baseline; runs with a different
record count or value size are refused.
"""

import argparse
import json
import sys

KINDS = ("core_speed", "wal_append")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") not in KINDS:
        sys.exit(f"{path}: not a bench_core_speed or bench_wal_append result")
    return doc


def rate(name, b, f, thr, lower_is_worse, failures):
    delta = (f - b) / b if b else 0.0
    worse = delta < -thr if lower_is_worse else delta > thr
    mark = "FAIL" if worse else "ok"
    print(f"  {name:<34} baseline {b:>12.2f}  fresh {f:>12.2f}  "
          f"{delta:+7.1%}  {mark}")
    if worse:
        failures.append(name)


def exact(name, b, f, failures):
    mark = "ok" if b == f else "FAIL"
    print(f"  {name:<34} baseline {b:>12}  fresh {f:>12}  "
          f"deterministic  {mark}")
    if b != f:
        failures.append(name)


def gate_core_speed(base, fresh, thr, failures):
    # Schema v3 added peak_rss_mb and store_keys; results of different
    # schemas do not carry the same fields.
    bs, fs = base.get("schema_version", 1), fresh.get("schema_version", 1)
    if bs != fs:
        sys.exit(f"schema mismatch: baseline is v{bs}, fresh is v{fs}; "
                 f"regenerate the baseline (docs/PERFORMANCE.md)")

    # Schema v2 records the worker-thread count; a threads=1 baseline must
    # never be compared against a threads=4 run (or vice versa) — the wall
    # rates are different populations and the gate would be meaningless.
    bt, ft = base.get("threads", 1), fresh.get("threads", 1)
    if bt != ft:
        sys.exit(f"thread-count mismatch: baseline ran with threads={bt}, "
                 f"fresh with threads={ft}; compare like against like "
                 f"(BENCH_CORE.json gates threads=1, BENCH_PARALLEL.json "
                 f"gates threads=4)")

    # A --wire run encodes and decodes every message: its rates, allocations
    # and RSS are a different population from a closure run's, exactly as a
    # different thread count's are.
    bw, fw = base.get("wire", False), fresh.get("wire", False)
    if bw != fw:
        sys.exit(f"wire-mode mismatch: baseline ran with wire={bw}, fresh "
                 f"with wire={fw}; compare like against like "
                 f"(BENCH_WIRE.json gates --wire runs)")

    print(f"bench-core regression gate (threshold {thr:.0%}):")
    for name, lower_is_worse in (("events_per_sec", True),
                                 ("allocs_per_event", False),
                                 ("peak_rss_mb", False)):
        rate(name, base[name], fresh[name], thr, lower_is_worse, failures)

    same_run = (base["seed"] == fresh["seed"]
                and base["virtual_duration_s"] == fresh["virtual_duration_s"])
    if same_run:
        for name in ("events", "commits", "peak_versions_per_key",
                     "store_keys", "epoch_barriers", "cross_shard_posts"):
            exact(name, base[name], fresh[name], failures)
    else:
        print("  (seed/duration differ from baseline: skipping the "
              "deterministic-counter comparison)")


def gate_wal_append(base, fresh, thr, failures):
    # Rates and log sizes scale with the record count and value size; a
    # --quick run is a different population from the full-size baseline.
    for key in ("records", "value_bytes"):
        if base[key] != fresh[key]:
            sys.exit(f"{key} mismatch: baseline ran with {key}={base[key]}, "
                     f"fresh with {key}={fresh[key]}; compare like against "
                     f"like (BENCH_WAL.json is a full-size run)")

    print(f"bench-wal regression gate (threshold {thr:.0%}):")
    fresh_rows = {row["name"]: row for row in fresh["rows"]}
    for row in base["rows"]:
        name = row["name"]
        got = fresh_rows.get(name)
        if got is None:
            print(f"  {name:<34} missing from the fresh run  FAIL")
            failures.append(name)
            continue
        rate(name, row["records_per_sec"], got["records_per_sec"], thr,
             True, failures)
        exact(name + " log_bytes", row["log_bytes"], got["log_bytes"],
              failures)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    if base["bench"] != fresh["bench"]:
        sys.exit(f"bench mismatch: baseline is {base['bench']}, fresh is "
                 f"{fresh['bench']}; compare like against like")
    failures = []
    if base["bench"] == "core_speed":
        gate_core_speed(base, fresh, args.threshold, failures)
    else:
        gate_wal_append(base, fresh, args.threshold, failures)

    if failures:
        print(f"REGRESSION: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
