// End-to-end wire-codec tests: running the full protocol through
// encode -> bytes -> decode -> dispatch must be observationally identical
// to the closure transport, which is what turns the whole experiment suite
// into a wire-format conformance suite. Corruption faults must be detected
// by the checksum (wire mode) or the symmetric rejection path (closure
// mode) with identical counts, and the protocol must recover around them.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"

namespace str::wire {
namespace {

using protocol::Cluster;
using protocol::ProtocolConfig;

harness::ExperimentConfig small_experiment(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.cluster = test::small_config(3, 2, ProtocolConfig::str(), msec(50), seed);
  cfg.clients_per_node = 3;
  cfg.warmup = sec(1);
  cfg.duration = sec(5);
  cfg.drain = sec(2);
  return cfg;
}

harness::WorkloadFactory synth_factory() {
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  wcfg.keys_per_txn = 4;
  return [wcfg](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
  };
}

TEST(WireE2E, WireModeIsObservationallyIdenticalToClosureMode) {
  auto run = [](bool wire) {
    auto cfg = small_experiment(11);
    cfg.cluster.wire_codec = wire;
    cfg.verify = true;
    return harness::run_experiment(cfg, synth_factory());
  };
  const auto closure = run(false);
  const auto wired = run(true);
  ASSERT_GT(closure.commits, 0u);
  EXPECT_EQ(wired.commits, closure.commits);
  EXPECT_EQ(wired.aborts, closure.aborts);
  EXPECT_EQ(wired.messages, closure.messages);
  EXPECT_EQ(wired.wan_messages, closure.wan_messages);
  EXPECT_EQ(wired.final_latency_p50, closure.final_latency_p50);
  EXPECT_EQ(wired.final_latency_p99, closure.final_latency_p99);
  EXPECT_EQ(wired.net_corrupted, 0u);
  EXPECT_TRUE(wired.violations.empty()) << wired.violations.front();
}

TEST(WireE2E, CorruptionIsDetectedCountedAndRecoveredFrom) {
  auto run = [](bool wire) {
    auto cfg = small_experiment(23);
    cfg.cluster.wire_codec = wire;
    cfg.cluster.faults.link.corrupt_prob = 0.02;
    cfg.duration = sec(8);
    cfg.verify = true;
    return harness::run_experiment(cfg, synth_factory());
  };
  const auto wired = run(true);
  // Corruption actually happened, was caught, and the retry/recovery
  // machinery kept the run safe and let it quiesce.
  EXPECT_GT(wired.net_corrupted, 0u);
  EXPECT_GT(wired.commits, 0u);
  EXPECT_TRUE(wired.violations.empty()) << wired.violations.front();
  EXPECT_TRUE(wired.quiesce.clean())
      << "live=" << wired.quiesce.live_txns
      << " parked=" << wired.quiesce.parked_reads
      << " uncommitted=" << wired.quiesce.uncommitted_txns
      << " orphans=" << wired.quiesce.orphans;

  // The closure transport models the same faults with the same RNG draws:
  // a physically-flipped bit rejected by the checksum in wire mode is a
  // poisoned delivery in closure mode, so the whole run stays identical.
  const auto closure = run(false);
  EXPECT_EQ(closure.net_corrupted, wired.net_corrupted);
  EXPECT_EQ(closure.commits, wired.commits);
  EXPECT_EQ(closure.messages, wired.messages);
}

TEST(WireE2E, PerTypeCountersSumToNetworkTotalsInBothModes) {
  for (const bool wire : {false, true}) {
    Cluster::Config cfg =
        test::small_config(3, 2, ProtocolConfig::str(), msec(50), 5);
    cfg.wire_codec = wire;
    Cluster cluster(cfg);
    for (NodeId n = 0; n < 3; ++n) {
      cluster.load(test::key_at(n, 1), "v0");
    }
    cluster.run_for(msec(10));
    test::TxProbe w1, w2, r1;
    test::run_rmw(cluster, cluster.node(0).coordinator(),
                  {test::key_at(0, 1), test::key_at(1, 1)}, "new", w1);
    cluster.run_for(sec(2));
    test::run_rmw(cluster, cluster.node(1).coordinator(),
                  {test::key_at(2, 1)}, "new2", w2);
    cluster.run_for(sec(2));
    test::run_reads(cluster, cluster.node(2).coordinator(),
                    {test::key_at(0, 1)}, r1);
    cluster.run_for(sec(2));
    ASSERT_TRUE(w1.done && w2.done && r1.done);

    // Every protocol message goes through wire::post, so the per-type
    // counters must account for exactly the network's totals — message
    // count and exact encoded bytes — whichever transport carried them.
    std::uint64_t msgs = 0, bytes = 0;
    const obs::Registry merged = cluster.merged_obs();
    for (const auto& [name, counter] : merged.counters()) {
      if (name.rfind("wire.msgs.", 0) == 0) msgs += counter.value();
      if (name.rfind("wire.bytes.", 0) == 0) bytes += counter.value();
    }
    const net::NetworkStats& ns = cluster.network().stats();
    EXPECT_EQ(msgs, ns.messages_sent) << "wire=" << wire;
    EXPECT_EQ(bytes, ns.bytes_sent) << "wire=" << wire;
    EXPECT_GT(msgs, 0u);
    // The dominant types all moved at least once.
    EXPECT_GT(merged.find_counter("wire.msgs.prepare_request")->value(), 0u);
    EXPECT_GT(merged.find_counter("wire.msgs.commit")->value(), 0u);
    EXPECT_GT(merged.find_counter("wire.msgs.read_request")->value(), 0u);
    EXPECT_EQ(merged.find_counter("wire.msgs.invalid")->value(), 0u);
  }
}

TEST(WireE2E, QuorumFramesAreCountedAndSumToNetworkTotals) {
  // Same counter-sum invariant with the quorum commit point on: the
  // DecisionReplicate fan-out and its acks ride wire::post like every other
  // message, so the per-type counters still account for the network totals
  // exactly, and both new types actually move.
  for (const bool wire : {false, true}) {
    Cluster::Config cfg =
        test::small_config(3, 2, ProtocolConfig::str(), msec(50), 5);
    cfg.wire_codec = wire;
    cfg.protocol.durability.wal_enabled = true;
    cfg.protocol.durability.decision_quorum = 2;
    Cluster cluster(cfg);
    for (NodeId n = 0; n < 3; ++n) {
      cluster.load(test::key_at(n, 1), "v0");
    }
    cluster.run_for(msec(10));
    test::TxProbe w1, w2;
    test::run_rmw(cluster, cluster.node(0).coordinator(),
                  {test::key_at(0, 1), test::key_at(1, 1)}, "new", w1);
    cluster.run_for(sec(2));
    test::run_rmw(cluster, cluster.node(1).coordinator(),
                  {test::key_at(2, 1)}, "new2", w2);
    cluster.run_for(sec(2));
    ASSERT_TRUE(w1.done && w2.done);
    ASSERT_EQ(w1.result.outcome, TxOutcome::Committed);

    std::uint64_t msgs = 0, bytes = 0;
    const obs::Registry merged = cluster.merged_obs();
    for (const auto& [name, counter] : merged.counters()) {
      if (name.rfind("wire.msgs.", 0) == 0) msgs += counter.value();
      if (name.rfind("wire.bytes.", 0) == 0) bytes += counter.value();
    }
    const net::NetworkStats& ns = cluster.network().stats();
    EXPECT_EQ(msgs, ns.messages_sent) << "wire=" << wire;
    EXPECT_EQ(bytes, ns.bytes_sent) << "wire=" << wire;
    ASSERT_NE(merged.find_counter("wire.msgs.decision_replicate"), nullptr);
    EXPECT_GT(merged.find_counter("wire.msgs.decision_replicate")->value(),
              0u)
        << "wire=" << wire;
    EXPECT_GT(
        merged.find_counter("wire.msgs.decision_replicate_ack")->value(), 0u)
        << "wire=" << wire;
  }
}

TEST(WireE2E, QuorumCountersAbsentWhenQuorumOff) {
  // With the quorum off no decision frame is ever sent: the per-type
  // counters are registered with every node (every run exports the same
  // instruments) and stay zero, and so does the lost-commit counter.
  Cluster::Config cfg =
      test::small_config(3, 2, ProtocolConfig::str(), msec(50), 5);
  cfg.wire_codec = true;
  Cluster cluster(cfg);
  cluster.load(test::key_at(0, 1), "v0");
  cluster.run_for(msec(10));
  test::TxProbe w;
  test::run_rmw(cluster, cluster.node(0).coordinator(), {test::key_at(0, 1)},
                "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  const obs::Registry merged = cluster.merged_obs();
  for (const char* name :
       {"wire.msgs.decision_replicate", "wire.msgs.decision_replicate_ack",
        "wire.bytes.decision_replicate", "wire.bytes.decision_replicate_ack",
        "recovery.lost_commits"}) {
    const obs::Counter* c = merged.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), 0u) << name;
  }
}

TEST(WireE2E, WriteResultsAreReadableThroughTheWire) {
  // Not just equal counters: a value that crossed the codec must come back
  // byte-identical to what the writer sent.
  Cluster::Config cfg =
      test::small_config(3, 2, ProtocolConfig::str(), msec(50), 9);
  cfg.wire_codec = true;
  Cluster cluster(cfg);
  const std::string payload(100, '\x7f');
  cluster.load(test::key_at(1, 4), "seed-value");
  cluster.run_for(msec(10));
  test::TxProbe w;
  test::run_rmw(cluster, cluster.node(0).coordinator(), {test::key_at(1, 4)},
                payload, w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  test::TxProbe r;
  test::run_reads(cluster, cluster.node(2).coordinator(), {test::key_at(1, 4)},
                  r);
  cluster.run_for(sec(2));
  ASSERT_TRUE(r.done);
  ASSERT_EQ(r.reads.size(), 1u);
  ASSERT_TRUE(r.reads[0].found);
  EXPECT_EQ(r.reads[0].value, payload);
}

}  // namespace
}  // namespace str::wire
