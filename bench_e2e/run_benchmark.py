#!/usr/bin/env python3
"""End-to-end benchmark of the STR simulator: the one command.

    python3 bench_e2e/run_benchmark.py --workload synth-a --seed 1 \
        --seconds 25 --trace 0

Builds bench_e2e (CMake, Release) into $CARGO_TARGET_DIR/e2e, or
.bench_build/e2e when that variable is unset, then runs the workload as a
series of passes, one process each (see bench_e2e.cpp):

  for each sub-seed s_i derived from --seed:
      timed pass     (no history: the published wall-clock numbers)
      verified pass  (the first sub-seeds only: history + SPSI check; on DES
                      workloads the timed pass must replay it exactly)
  --trace 1 adds traced passes on the first sub-seeds.

The pass counts are fixed by --seconds and the workload, so the simulated
work, and with it every DES metric, is a pure function of the seed.
Wall-clock metrics are medians over short window slices or over passes,
which rejects bursts of host noise. With --trace 0 the last stdout line
carries the end-to-end metrics, with --trace 1 the per-layer metrics. A full
record, with provenance, is written to <build dir>/results/.

Exit status: 0 when every correctness check held, 1 when one failed (the
failing workload and check are named on stderr), 2 on usage or build errors.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Passes per run: `verified` verified passes, `timed` timed passes per second
# of --seconds (sized so that a run takes about --seconds on a 4-core Xeon
# VM) and, with --trace 1, `traced` traced passes. Host speed varies per
# process, so many short passes beat a few long ones. Why each workload is
# here: README.md.
WORKLOADS = {
    "synth-a": {"verified": 3, "timed": 1.0, "traced": 3},
    "tpcc-durable": {"verified": 3, "timed": 1.0, "traced": 3},
    "synth-b-sharded": {"verified": 3, "timed": 0.8, "traced": 3},
    "synth-a-tcp": {"verified": 2, "timed": 0.15, "traced": 1, "tcp": True},
}

# (name, unit) — what a user of the simulator sees. Directions and bounds
# live in BENCHMARK.json. Wall-clock speed (commits_per_wall_s, verify_s) is
# reported per layer: on a shared VM it drifts by up to a quarter between
# runs minutes apart (README.md).
END_TO_END = [
    ("commit_tps", "txn/s"),
    ("final_latency_p50_ms", "ms"),
    ("final_latency_p99_ms", "ms"),
    ("abort_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

ABORT_REASONS = ["local-certification", "global-certification",
                 "remote-replication", "misspeculation", "cascading-abort"]
# local_cert and lock_hold are identically 0 under STR and are left out.
PHASES = ["gate_stall", "read_block", "wan_prepare", "dep_wait"]
EDGES = ["local_compute", "read_local", "read_wan", "gate_stall",
         "local_cert", "prepare_wan", "dep_wait", "finalize"]

# (name, unit). Layers that a workload leaves idle report 0 as a count or
# ratio, never as a time.
PER_LAYER = (
    [("commits_per_wall_s", "txn/s"), ("verify_s", "s"),
     ("sim.events_per_commit", "count"), ("sim.events_per_wall_s", "1/s"),
     ("sim.epoch_barriers", "count"),
     ("sim.cross_shard_posts_per_event", "ratio"),
     ("mem.allocs_per_event", "count"), ("mem.alloc_bytes_per_commit", "B"),
     ("txn.useful_ratio", "ratio")]
    + [("txn.abort_share." + r.replace("-", "_"), "ratio")
       for r in ABORT_REASONS]
    + [("protocol.spec_read_share", "ratio")]
    + [("phase.%s.share" % p, "ratio") for p in PHASES]
    + [("phase.%s.p99_us" % p, "us") for p in PHASES if p != "gate_stall"]
    + [("store.reads_per_commit", "count"),
       ("store.read.blocked_share", "ratio"),
       ("store.read.speculative_share", "ratio"),
       ("store.versions_per_commit", "count"),
       ("store.gc_removed_per_commit", "count"),
       ("store.peak_chain", "count"),
       ("wire.msgs_per_commit", "count"), ("wire.bytes_per_commit", "B"),
       ("wire.dispatch_share", "ratio"), ("wire.decode_share", "ratio"),
       ("net.messages_per_commit", "count"), ("net.wan_share", "ratio"),
       ("transport.frames_per_commit", "count"),
       ("transport.bytes_per_commit", "B"),
       ("transport.resent", "count"), ("transport.reconnects", "count"),
       ("wal.records_per_commit", "count"),
       ("wal.flushes_per_commit", "count"),
       ("wal.records_per_flush", "count"), ("wal.bytes_per_commit", "B"),
       ("workload.next_ns.mean", "ns"),
       ("verify.reads_checked", "count"), ("verify.ns_per_read", "ns"),
       ("setup.ctor_s", "s"), ("setup.load_s", "s"),
       ("setup.clients_s", "s"), ("setup.warmup_s", "s"),
       ("obs.merge_s", "s"),
       ("final_latency.samples", "count")]
    + [("cp.%s.share" % e, "ratio") for e in EDGES]
    + [("trace.overhead_share", "ratio"), ("trace.dropped", "count"),
       ("spans.coverage_min", "ratio")]
)

# Once built, a run must end within 180 s; passes stop at this budget.
RUN_LIMIT_S = 170


class GateFailure(Exception):
    """A correctness check failed; the message names the check."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def nearest_rank(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# -- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            log("build failed: " + " ".join(cmd))
            raise SystemExit(2)
    return bdir / "bench_e2e"


def provenance(binary):
    cache = {}
    cache_file = binary.parent / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                         line)
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except OSError:
            pass
    # The checkout may not be a git repository: a digest of the sources
    # identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.rglob("*"))):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_sha": sha, "source_sha256": digest.hexdigest()}


# -- passes ------------------------------------------------------------------

def pass_counts(workload, seconds, quick):
    """(verified, timed, traced) pass counts: a pure function of the
    arguments, so the simulated work never depends on how fast the host is."""
    if quick:
        return 1, 1, 1
    w = WORKLOADS[workload]
    return (w["verified"], max(w["verified"], round(seconds * w["timed"])),
            w["traced"])


def run_pass(binary, workload, seed, kind, quick, deadline):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--pass", kind] + (["--quick"] if quick else [])
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(0.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise GateFailure("%s pass (seed %d) ran past the %d s run limit"
                          % (kind, seed, RUN_LIMIT_S))
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-2000:])
        raise GateFailure("%s pass (seed %d) exited with %d"
                          % (kind, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["process_wall_s"] = wall
    if not result["ok"]:
        raise GateFailure("%s pass (seed %d): %s"
                          % (kind, seed, result["failure"]))
    if result.get("window", {}).get("commits") == 0 or \
            result["total_commits"] == 0:
        raise GateFailure("%s pass (seed %d) committed nothing" % (kind, seed))
    return result


def window_counts(p):
    w = p["window"]
    return (w["commits"], w["aborts"], sum(w["slices"]["events"]))


def run_plan(binary, workload, seed, seconds, trace, quick, deadline):
    """Sub-seed i runs a timed pass, and the first ones a verified pass too."""
    tcp = WORKLOADS[workload].get("tcp", False)
    n_verified, n_timed, n_traced = pass_counts(workload, seconds, quick)
    verified, timed, traced = [], [], []
    for i in range(max(n_verified, n_timed)):
        s = seed * 1000 + i
        if i < n_verified:
            verified.append(
                run_pass(binary, workload, s, "verified", quick, deadline))
        if i < n_timed:
            timed.append(
                run_pass(binary, workload, s, "timed", quick, deadline))
        # A DES pass is a pure function of its seed: the timed pass must
        # replay the verified pass event for event.
        if not tcp and i < min(n_verified, n_timed):
            v, t = window_counts(verified[i]), window_counts(timed[i])
            if v != t:
                raise GateFailure(
                    "seed %d: timed pass (commits, aborts, events) %s differs "
                    "from its verified pass %s" % (s, t, v))
    for t in timed[:n_traced] if trace else []:
        traced.append(run_pass(binary, workload, t["seed"], "traced", quick,
                               deadline))
        if not tcp and window_counts(traced[-1]) != window_counts(t):
            raise GateFailure("seed %d: traced pass diverged from its timed "
                              "pass" % t["seed"])
    return verified, timed, traced


# -- metrics -----------------------------------------------------------------

def slice_series(passes, key):
    return [x for p in passes for x in p["window"]["slices"][key]]


def total(passes, key):
    return sum(p["window"][key] for p in passes)


def counter(passes, name):
    return sum(p["counters"].get(name, 0) for p in passes)


def setup_s(p):
    laps = p["laps"]
    return laps["startup"] + laps["ctor"] + laps["load"] + laps["clients"] \
        + laps["warmup"]


def slice_percentiles(passes, q):
    """Exact q-percentile of each window slice that committed anything."""
    out = []
    for p in passes:
        samples, start = p["window"]["latency_ms"], 0
        for n in p["window"]["slices"]["latency_n"]:
            chunk, start = samples[start:start + int(n)], start + int(n)
            if chunk:
                out.append(nearest_rank(chunk, q))
    return out


def end_to_end(workload, timed):
    tcp = WORKLOADS[workload].get("tcp", False)
    virt = slice_series(timed, "virtual_s")
    commits = slice_series(timed, "commits")
    m = {}
    if tcp:
        # Wall-clock everything: medians over 100 ms slices, each slice's
        # percentiles from its own ~1000 transactions.
        m["commit_tps"] = median([c / v for c, v in zip(commits, virt)])
        m["final_latency_p50_ms"] = median(slice_percentiles(timed, 0.50))
        m["final_latency_p99_ms"] = median(slice_percentiles(timed, 0.99))
    else:
        # Pure functions of the seed: throughput pooled over every sub-seed's
        # window; each percentile exact within a pass, then averaged over
        # sub-seeds (pooling would let one sub-seed's heavy tail dominate).
        m["commit_tps"] = ratio(sum(commits), sum(virt))
        for q, name in ((0.50, "final_latency_p50_ms"),
                        (0.99, "final_latency_p99_ms")):
            m[name] = statistics.mean(
                nearest_rank(p["window"]["latency_ms"], q) for p in timed)
    aborts = total(timed, "aborts")
    m["abort_rate"] = ratio(aborts, aborts + total(timed, "commits"))
    m["setup_s"] = median([setup_s(p) for p in timed])
    m["peak_rss_mb"] = median([p["peak_rss_mb"] for p in timed])
    return m


def per_layer(verified, timed, traced):
    commits = total(timed, "commits")
    attempts = commits + total(timed, "aborts")
    events = sum(slice_series(timed, "events"))
    wall = slice_series(timed, "wall_s")
    m = {
        "commits_per_wall_s": median(
            [c / w for c, w in zip(slice_series(timed, "commits"), wall)]),
        "verify_s": median([p["verify"]["wall_s"] for p in verified]),
        "sim.events_per_commit": ratio(events, commits),
        "sim.events_per_wall_s": median(
            [e / w for e, w in zip(slice_series(timed, "events"), wall)]),
        "sim.epoch_barriers": total(timed, "epochs") / len(timed),
        "sim.cross_shard_posts_per_event": ratio(total(timed, "cross_posts"),
                                                 events),
        "mem.allocs_per_event": ratio(total(timed, "allocs"), events),
        "mem.alloc_bytes_per_commit": ratio(total(timed, "alloc_bytes"),
                                            commits),
        "txn.useful_ratio": ratio(commits, attempts),
        "protocol.spec_read_share": ratio(total(timed, "spec_reads"),
                                          total(timed, "reads")),
    }
    aborts = total(timed, "aborts")
    for r in ABORT_REASONS:
        n = sum(p["window"]["aborts_by_reason"][r] for p in timed)
        m["txn.abort_share." + r.replace("-", "_")] = ratio(n, aborts)
    # Phase time per unit of committed final latency, and the phase p99
    # (median over the passes that recorded the phase).
    latency_us = 1e3 * sum(x for p in timed for x in p["window"]["latency_ms"])
    for ph in PHASES:
        stats = [p["phases"][ph] for p in timed]
        m["phase.%s.share" % ph] = ratio(
            sum(s["mean_us"] * s["count"] for s in stats), latency_us)
        if ph != "gate_stall":
            m["phase.%s.p99_us" % ph] = median(
                [s["p99_us"] for s in stats if s["count"]])
    kinds = ["committed", "speculative", "blocked", "notfound"]
    reads = sum(counter(timed, "store.read." + k) for k in kinds)
    m.update({
        "store.reads_per_commit": ratio(reads, commits),
        "store.read.blocked_share": ratio(
            counter(timed, "store.read.blocked"), reads),
        "store.read.speculative_share": ratio(
            counter(timed, "store.read.speculative"), reads),
        "store.versions_per_commit": ratio(
            counter(timed, "store.versions_inserted"), commits),
        "store.gc_removed_per_commit": ratio(
            counter(timed, "store.gc_removed"), commits),
        "store.peak_chain": median([p["peak_chain"] for p in timed]),
        "wire.msgs_per_commit": ratio(counter(timed, "wire.msgs"), commits),
        "wire.bytes_per_commit": ratio(counter(timed, "wire.bytes"), commits),
        "net.messages_per_commit": ratio(counter(timed, "net.messages"),
                                         commits),
        "net.wan_share": ratio(counter(timed, "net.wan_messages"),
                               counter(timed, "net.messages")),
        "transport.frames_per_commit": ratio(
            counter(timed, "transport.frames_sent"), commits),
        "transport.bytes_per_commit": ratio(
            counter(timed, "transport.bytes_sent"), commits),
        "transport.resent": counter(timed, "transport.frames_resent"),
        "transport.reconnects": counter(timed, "transport.reconnects"),
        "wal.records_per_commit": ratio(counter(timed, "wal.records"),
                                        commits),
        "wal.flushes_per_commit": ratio(counter(timed, "wal.flushes"),
                                        commits),
        "wal.records_per_flush": ratio(counter(timed, "wal.records"),
                                       counter(timed, "wal.flushes")),
        "wal.bytes_per_commit": ratio(counter(timed, "wal.flushed_bytes"),
                                      commits),
        "verify.reads_checked": median(
            [p["verify"]["reads"] for p in verified]),
        "verify.ns_per_read": median(
            [ratio(p["verify"]["wall_s"] * 1e9, p["verify"]["reads"])
             for p in verified]),
        "setup.ctor_s": median([p["laps"]["ctor"] for p in timed]),
        "setup.load_s": median([p["laps"]["load"] for p in timed]),
        "setup.clients_s": median([p["laps"]["clients"] for p in timed]),
        "setup.warmup_s": median([p["laps"]["warmup"] for p in timed]),
        "obs.merge_s": median([p["laps"]["merge"] for p in timed]),
        "final_latency.samples": sum(len(p["window"]["latency_ms"])
                                     for p in timed),
    })
    # The first traced pass gives the per-call histograms and critical-path
    # shares; every traced pass is paired with its sub-seed's timed pass for
    # the overhead.
    tr = traced[0]["traced"]
    window_wall = sum(traced[0]["window"]["slices"]["wall_s"])
    m.update({
        "wire.dispatch_share": ratio(
            tr["dispatch_ns"]["sum"] * tr["dispatch_sample"] / 1e9,
            window_wall),
        "wire.decode_share": ratio(
            tr["decode_ns"]["sum"] * tr["decode_sample"] / 1e9, window_wall),
        "workload.next_ns.mean": ratio(tr["next_ns"]["sum"],
                                       tr["next_ns"]["count"]),
        "trace.dropped": sum(p["traced"]["trace_dropped"] for p in traced),
    })
    for e in EDGES:
        m["cp.%s.share" % e] = tr["cp"][e]
    # Tracing overhead: window wall time per event, traced over untraced, for
    # each sub-seed (on DES both replay the same events), median over pairs.
    def wall_per_event(p):
        s = p["window"]["slices"]
        return ratio(sum(s["wall_s"]), sum(s["events"]))
    m["trace.overhead_share"] = median(
        [ratio(wall_per_event(tp), wall_per_event(t)) - 1.0
         for tp, t in zip(traced, timed)])
    passes = verified + timed + traced
    m["spans.coverage_min"] = min(
        sum(p["laps"].values()) / p["process_wall_s"] for p in passes)
    return m


# -- entry points --------------------------------------------------------------

def measure(binary, workload, seed, seconds, trace, quick):
    """Run one workload; returns (record, gate failure or None)."""
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "quick": quick}
    t0 = time.perf_counter()
    try:
        verified, timed, traced = run_plan(binary, workload, seed, seconds,
                                           trace, quick, t0 + RUN_LIMIT_S)
    except GateFailure as e:
        return record, str(e)
    record["wall_s"] = time.perf_counter() - t0
    record["attempted"] = sum(p["total_commits"] for p in verified + timed)
    record["end_to_end"] = end_to_end(workload, timed)
    record["latency_samples"] = sum(len(p["window"]["latency_ms"])
                                    for p in timed)
    if trace:
        record["per_layer"] = per_layer(verified, timed, traced)
        # Per-call histograms (sampled; see bench_e2e.cpp).
        hists = traced[0]["traced"]
        record["traced"] = {"dispatch_frame": hists["dispatch_ns"],
                            "decode_frame": hists["decode_ns"],
                            "next": hists["next_ns"]}
    record["passes"] = verified + timed + traced
    return record, None


def write_record(record, prov):
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("%s_seed%d_trace%d.json"
                      % (record["workload"], record["seed"], record["trace"]))
    path.write_text(json.dumps(dict(record, provenance=prov), indent=1))
    return path


def metrics_json(values, spec):
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def benchmark(args):
    binary = build()
    prov = provenance(binary)
    record, failure = measure(binary, args.workload, args.seed, args.seconds,
                              args.trace, False)
    path = write_record(record, prov)
    spec = PER_LAYER if args.trace else END_TO_END
    values = record.get("per_layer" if args.trace else "end_to_end", {})
    for name, unit in spec:
        if name in values:
            print("%-34s %14.6g %s" % (name, values[name], unit))
    if "latency_samples" in record:
        print("final latency samples: %d" % record["latency_samples"])
    if "traced" in record:
        for name, h in record["traced"].items():
            print("traced %-16s p50 %8.0f ns  p99 %8.0f ns  (%d calls)"
                  % (name, h["p50"], h["p99"], h["count"]))
    print("provenance: nproc=%s cpu=%s compiler=%s build=%s git=%s src=%s"
          % (prov["nproc"], prov["cpu_model"], prov["compiler"],
             prov["build_type"], prov["git_sha"][:12],
             prov["source_sha256"][:12]))
    print("record: %s" % path)
    if failure:
        log("FAILED %s: %s" % (args.workload, failure))
        print(json.dumps({"correct": False,
                          "attempted": max(1, record.get("attempted", 0)),
                          "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": 0, "metrics": metrics_json(values, spec)}))
    return 0


def smoke(args):
    """Every workload at --quick size with tracing: gates pass and every
    metric name is produced (and matches BENCHMARK.json when present)."""
    binary = Path(args.binary) if args.binary else build()
    units = dict(END_TO_END + PER_LAYER)
    bench_json = ROOT / "BENCHMARK.json"
    problems = []
    if bench_json.exists():
        spec = json.loads(bench_json.read_text())
        listed = {m["name"]: m["unit"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
        if listed != units:
            problems.append("BENCHMARK.json metrics differ from the runner's")
        if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
            problems.append("BENCHMARK.json names an unknown workload")
    for workload in WORKLOADS:
        record, failure = measure(binary, workload, 1, 1, 1, True)
        if failure:
            problems.append("%s: %s" % (workload, failure))
            continue
        produced = dict(record["end_to_end"], **record["per_layer"])
        missing = [n for n in units if n not in produced]
        if missing:
            problems.append("%s: missing %s" % (workload, ", ".join(missing)))
        print("%-16s ok  %d metrics, %.1f s"
              % (workload, len(produced), record["wall_s"]))
    for p in problems:
        log("FAILED " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at smoke size and check names")
    ap.add_argument("--binary", help="prebuilt bench_e2e (smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "protocol" / "cluster.hpp").exists():
        log("no simulator sources under %s" % (ROOT / "src"))
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        ap.error("--workload, a non-negative --seed and positive --seconds "
                 "are required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
