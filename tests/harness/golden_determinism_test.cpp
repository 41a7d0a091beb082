// Golden-determinism guard for the DES core.
//
// A fixed-seed run's full execution history (begins, reads, commits, aborts
// — with their virtual times) plus a curated set of behaviour counters is
// hashed with FNV-1a and compared against a committed golden value. Any
// change to event ordering, protocol decisions, RNG consumption, or message
// traffic moves the hash; performance work on the simulator hot path must
// keep it byte-identical. The curated counters deliberately exclude GC
// accounting ("store.gc_removed") so that version pruning — which must be
// behaviour-neutral for every reader — can be toggled without moving the
// hash; a second run with pruning disabled asserts exactly that.
//
// Regenerating the golden value after an *intentional* behaviour change:
// see docs/PERFORMANCE.md ("Golden hash").

#include <gtest/gtest.h>

#include <cstdint>

#include "harness/metrics.hpp"
#include "protocol/cluster.hpp"
#include "verify/history.hpp"
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

struct RunOptions {
  bool watermark_pruning = true;
  bool wire_codec = false;
  std::uint32_t threads = 1;
};

std::uint64_t run_and_hash(const RunOptions& opt) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.protocol.watermark_pruning = opt.watermark_pruning;
  // GC must actually run inside the window for the pruning-neutrality half
  // of this test to bite.
  cfg.protocol.gc_interval = msec(500);
  cfg.seed = 7;
  cfg.wire_codec = opt.wire_codec;
  cfg.threads = opt.threads;

  protocol::Cluster cluster(cfg);
  verify::HistoryRecorder history;
  cluster.set_history(&history);
  workload::SyntheticWorkload wl(cluster,
                                 workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, 60);
  pool.start_all();
  cluster.run_for(sec(4));
  pool.request_stop_all();
  cluster.run_for(sec(2));
  // Shards append history in execution order; hash the content order,
  // which is the same for every worker count.
  history.canonicalize();

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
  for (const auto* events : {&history.local_commits(), &history.final_commits()}) {
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

  // Behaviour counters. Deliberately NOT hashed: "store.gc_removed" (GC
  // aggressiveness is allowed to vary with the pruning policy) and anything
  // wall-clock flavoured.
  obs::Registry merged = cluster.merged_obs();
  for (const char* name :
       {"txn.begins", "txn.commits", "txn.aborts", "net.messages",
        "net.wan_messages", "net.bytes", "store.versions_inserted",
        "store.read.committed", "store.read.speculative",
        "store.read.blocked", "store.read.notfound",
        "store.prepare_conflicts"}) {
    fnv.mix(merged.counter(name).value());
  }
  fnv.mix(cluster.sharded().executed());
  fnv.mix(cluster.now());
  return fnv.value();
}

// The committed golden value. Regenerate (docs/PERFORMANCE.md) only for an
// intentional behaviour change, and say so in the commit message.
constexpr std::uint64_t kGoldenHash = 0x2fb1387c803fb4e4ULL;

TEST(GoldenDeterminism, FixedSeedRunMatchesCommittedHash) {
  const std::uint64_t h = run_and_hash({});
  // Two runs in the same process must agree (no hidden global state)...
  EXPECT_EQ(h, run_and_hash({}));
  // ...and match the committed golden value exactly.
  EXPECT_EQ(h, kGoldenHash)
      << "behaviour changed: got 0x" << std::hex << h
      << " — if intentional, update kGoldenHash (docs/PERFORMANCE.md)";
}

TEST(GoldenDeterminism, WatermarkPruningIsBehaviourNeutral) {
  RunOptions off;
  off.watermark_pruning = false;
  EXPECT_EQ(run_and_hash(off), kGoldenHash)
      << "disabling watermark pruning changed observable behaviour";
}

// The worker count is only a speed setting: every run executes the same
// region-sharded lattice, so four workers reproduce the hash exactly.
TEST(GoldenDeterminism, WorkerCountIsBehaviourNeutral) {
  RunOptions four;
  four.threads = 4;
  EXPECT_EQ(run_and_hash(four), kGoldenHash)
      << "running the lattice on four workers changed observable behaviour";
}

// Encoding every message to bytes and decoding it at delivery (--wire) must
// not move a single event or counter: both transports make identical RNG
// draws and charge identical (exact) frame sizes, so the run is bit-identical
// to the closure-mode golden hash. This makes the whole suite a wire-format
// conformance test — any lossy or non-deterministic encode/decode shows up
// here as a hash mismatch.
TEST(GoldenDeterminism, WireCodecIsBehaviourNeutral) {
  RunOptions wire;
  wire.wire_codec = true;
  EXPECT_EQ(run_and_hash(wire), kGoldenHash)
      << "wire codec round-tripping changed observable behaviour";
}

}  // namespace
}  // namespace str::harness
