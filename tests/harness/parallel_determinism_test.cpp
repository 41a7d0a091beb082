// Differential determinism for the region-sharded scheduler.
//
// Every run executes the same lattice (one shard per region), and its
// contract (docs/SIMULATION.md, docs/PERFORMANCE.md) is worker-count
// invariance: the trajectory is a pure function of (seed, topology, fault
// plan) — the SAME for 1 worker as for 2, 4 or 8, on any machine — because
// every shard's event order, RNG stream, and mailbox merge order are
// defined without reference to wall-clock interleaving. These tests enforce
// that contract differentially: run the identical configuration at 1, 2, 4
// and 8 worker threads, canonicalize the (execution-ordered) history, and
// demand a bit-identical FNV fingerprint over every begin/read/commit/abort
// plus the curated behaviour counters and every sink that several workers
// fill at once (the net.* counters and latency timer, summed over per-shard
// slots; every wire.msgs.* and wire.bytes.* counter and the harness
// Metrics, summed over per-node registries): a count written to the wrong
// slot or registry, or summed twice, changes the totals at some worker
// count.
//
// Six configurations, because parallel bugs hide in the machinery each
// one uniquely exercises:
//   clean    pure protocol traffic (mailbox merge order, per-shard RNG)
//   chaos    drops + dups + a partition window + crash/restart (global
//            tasks quiescing the lattice, per-shard fault streams,
//            epoch-gated delivery to a crashed node)
//   durable  WAL + torn-write crash/replay (per-node WAL counters, media
//            events on the owner's shard scheduler)
//   quorum   the decision-replication fan-out and the in-doubt registry,
//            clean and with a permanent coordinator kill under chaos
//   wire     the tpcc-durable path: every message a frame, decoded through
//            the cluster's shared payload table (locked once several
//            workers run), with WAL, the decision quorum and chaos

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/metrics.hpp"
#include "protocol/cluster.hpp"
#include "verify/history.hpp"
#include "verify/spsi_checker.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

namespace str::harness {
namespace {

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class Variant {
  kClean,
  kChaos,
  kDurable,
  kQuorum,
  kQuorumChaos,
  kWireChaos,
};

struct RunResult {
  std::uint64_t fingerprint = 0;
  std::size_t violations = 0;
  std::uint64_t commits = 0;
  std::uint64_t events = 0;
};

RunResult run_variant(std::uint32_t threads, Variant variant) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.seed = 11;
  cfg.threads = threads;

  Timestamp drain = sec(2);
  if (variant != Variant::kClean) {
    // Crashed coordinators leave prepared participants probing on
    // second-scale timers; the drain must cover orphan recovery (the
    // experiment harness applies the same floor under a fault plan).
    cfg.protocol.recovery.enabled = true;
    drain = sec(10);
  }
  if (variant == Variant::kChaos) {
    cfg.faults.link.drop_prob = 0.01;
    cfg.faults.link.dup_prob = 0.01;
    cfg.faults.link.heal_at = sec(3);  // drain is a provable recovery window
    cfg.faults.add_partition(0, 3, sec(1), sec(2));
    cfg.faults.add_crash(/*node=*/4, sec(1), /*restart_at=*/msec(2500));
  }
  if (variant == Variant::kDurable) {
    cfg.protocol.durability.wal_enabled = true;
    cfg.faults.storage.torn_write_prob = 0.5;
    cfg.faults.add_crash(/*node=*/2, msec(1500), /*restart_at=*/sec(3));
  }
  if (variant == Variant::kQuorum || variant == Variant::kQuorumChaos ||
      variant == Variant::kWireChaos) {
    // Quorum commit point: the DecisionReplicate fan-out and its acks run
    // on the shard lattice like every other message; the in-doubt registry
    // and census add cross-shard work that must stay worker-count
    // invariant. The chaos flavour kills a coordinator PERMANENTLY, so the
    // census (not a restart replay) is what resolves its participants.
    cfg.protocol.durability.wal_enabled = true;
    cfg.protocol.durability.decision_quorum = 2;
  }
  if (variant == Variant::kQuorumChaos) {
    cfg.faults.link.drop_prob = 0.01;
    cfg.faults.link.dup_prob = 0.01;
    cfg.faults.link.heal_at = sec(3);
    cfg.faults.storage.torn_write_prob = 0.5;
    cfg.faults.add_crash(/*node=*/4, sec(1));  // permanent
  }
  if (variant == Variant::kWireChaos) {
    // Frames carry every message, so payloads are recorded and resolved
    // from every shard at once; corrupted frames die at the checksum, and
    // the crash, WAL replay and census run beside the decoding.
    cfg.wire_codec = true;
    cfg.faults.link.drop_prob = 0.01;
    cfg.faults.link.dup_prob = 0.01;
    cfg.faults.link.corrupt_prob = 0.01;
    cfg.faults.link.heal_at = sec(3);
    cfg.faults.storage.torn_write_prob = 0.5;
    cfg.faults.add_crash(/*node=*/4, sec(1), /*restart_at=*/msec(2500));
  }

  protocol::Cluster cluster(cfg);
  verify::HistoryRecorder history;
  cluster.set_history(&history);
  workload::SyntheticWorkload wl(cluster,
                                 workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, 45);
  pool.start_all();
  cluster.run_for(sec(3));
  pool.request_stop_all();
  cluster.run_for(drain);

  // Shards append history in execution order, which depends on the worker
  // count; fold it back to the content order before hashing or checking.
  history.canonicalize();

  RunResult r;
  Fnv fnv;
  for (const auto& e : history.begins()) {
    fnv.mix(e.tx.node);
    fnv.mix(e.tx.seq);
    fnv.mix(e.node);
    fnv.mix(e.rs);
  }
  for (const auto& e : history.reads()) {
    fnv.mix(e.reader.node);
    fnv.mix(e.reader.seq);
    fnv.mix(e.key);
    fnv.mix(e.writer.node);
    fnv.mix(e.writer.seq);
    fnv.mix(e.version_ts);
    fnv.mix(static_cast<std::uint64_t>(e.writer_state));
    fnv.mix(e.at);
  }
  for (const auto* events :
       {&history.local_commits(), &history.final_commits()}) {
    for (const auto& e : *events) {
      fnv.mix(e.tx.node);
      fnv.mix(e.tx.seq);
      fnv.mix(e.ts);
      fnv.mix(e.at);
      for (Key k : e.keys) fnv.mix(k);
    }
  }
  for (const auto& e : history.aborts()) {
    fnv.mix(e.tx.node);
    fnv.mix(e.tx.seq);
    fnv.mix(static_cast<std::uint64_t>(e.reason));
    fnv.mix(e.at);
  }

  // Behaviour counters: commutative sums, so thread-count invariant even
  // though each was accumulated from several worker threads.
  obs::Registry merged = cluster.merged_obs();
  for (const char* name :
       {"txn.begins", "txn.commits", "txn.aborts", "net.messages",
        "net.wan_messages", "net.bytes", "store.versions_inserted",
        "store.read.committed", "store.read.speculative",
        "store.read.blocked", "store.read.notfound",
        "store.prepare_conflicts"}) {
    fnv.mix(merged.counter(name).value());
  }
  // Per-shard and per-node sinks beyond the curated set: the rest of the
  // network's counters and its latency timer, and every per-type wire
  // counter.
  for (const char* name : {"net.dropped", "net.duplicated", "net.corrupted",
                           "net.inversions"}) {
    fnv.mix(merged.counter(name).value());
  }
  const obs::Timer& net_latency = merged.timer("net.latency");
  EXPECT_GT(net_latency.count(), 0u);
  fnv.mix(net_latency.count());
  fnv.mix(net_latency.hist().sum());
  std::size_t wire_counters = 0;
  for (const auto& [name, c] : merged.counters()) {
    if (name.rfind("wire.msgs.", 0) == 0 || name.rfind("wire.bytes.", 0) == 0) {
      fnv.mix(c.value());
      ++wire_counters;
    }
  }
  EXPECT_GT(wire_counters, 0u);
  const Metrics& m = cluster.metrics();
  fnv.mix(m.reads());
  fnv.mix(m.speculative_reads());
  fnv.mix(m.commits());
  for (std::uint8_t reason = 0; reason < 16; ++reason) {
    fnv.mix(m.aborts_of(static_cast<AbortReason>(reason)));
  }
  fnv.mix(m.final_latency().count());
  fnv.mix(m.final_latency().sum());
  if (variant == Variant::kWireChaos) {
    // The chaos hit frames, and decoding went through the payload table:
    // receivers were handed the senders' update lists.
    EXPECT_GT(merged.counter("net.corrupted").value(), 0u);
    EXPECT_GT(cluster.payloads().found(), 0u);
  }
  // Every shard's queue, not scheduler() — that is one shard's slice.
  fnv.mix(cluster.sharded().executed());
  fnv.mix(cluster.now());
  r.fingerprint = fnv.value();

  r.commits = cluster.metrics().commits();
  r.events = cluster.sharded().executed();
  verify::SpsiChecker checker(history);
  r.violations = checker.check_all().size();
  return r;
}

void expect_worker_count_invariant(Variant variant) {
  const RunResult one = run_variant(1, variant);
  EXPECT_EQ(one.violations, 0u);
  EXPECT_GT(one.commits, 0u);  // the run actually did work
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    const RunResult r = run_variant(threads, variant);
    EXPECT_EQ(r.fingerprint, one.fingerprint)
        << "threads=1 and threads=" << threads
        << " diverged: the trajectory leaked the worker count";
    EXPECT_EQ(r.commits, one.commits) << "threads=" << threads;
    EXPECT_EQ(r.events, one.events) << "threads=" << threads;
    EXPECT_EQ(r.violations, 0u) << "threads=" << threads;
  }
}

// The test names predate the 1- and 8-worker runs; each compares all four
// worker counts.
TEST(ParallelDeterminism, TwoAndFourWorkersAgreeClean) {
  expect_worker_count_invariant(Variant::kClean);
}

TEST(ParallelDeterminism, TwoAndFourWorkersAgreeUnderChaos) {
  expect_worker_count_invariant(Variant::kChaos);
}

TEST(ParallelDeterminism, TwoAndFourWorkersAgreeWithWal) {
  expect_worker_count_invariant(Variant::kDurable);
}

TEST(ParallelDeterminism, TwoAndFourWorkersAgreeWithQuorum) {
  expect_worker_count_invariant(Variant::kQuorum);
}

TEST(ParallelDeterminism, TwoAndFourWorkersAgreeWithQuorumChaos) {
  expect_worker_count_invariant(Variant::kQuorumChaos);
}

TEST(ParallelDeterminism, WorkerCountsAgreeOnWireFramesWithQuorumChaos) {
  expect_worker_count_invariant(Variant::kWireChaos);
}

}  // namespace
}  // namespace str::harness
