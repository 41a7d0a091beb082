// One metrics sink: every instrument a run can produce is registered when
// the cluster is built, and the readers over the node registries
// (harness::Metrics, Network::stats()) agree with the merged export after
// a quorum + crash chaos run.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/metrics.hpp"
#include "protocol/cluster.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

namespace str::obs {
namespace {

/// The 9-region EC2 matrix with WAL, decision quorum 2, drops and
/// duplicates until 3 s, torn writes, and coordinator 4 killed for good at
/// 1.5 s, inside the measurement window.
protocol::Cluster::Config quorum_chaos_config() {
  protocol::Cluster::Config cfg;
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.seed = 5;
  cfg.threads = 2;
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 2;
  cfg.faults.link.drop_prob = 0.02;
  cfg.faults.link.dup_prob = 0.02;
  cfg.faults.link.heal_at = sec(3);
  cfg.faults.storage.torn_write_prob = 0.5;
  cfg.faults.add_crash(/*node=*/4, msec(1500));
  return cfg;
}

/// Every instrument of `reg`, kind-prefixed.
std::set<std::string> instrument_names(const Registry& reg) {
  std::set<std::string> names;
  for (const auto& [name, c] : reg.counters()) names.insert("counter " + name);
  for (const auto& [name, g] : reg.gauges()) names.insert("gauge " + name);
  for (const auto& [name, t] : reg.timers()) names.insert("timer " + name);
  return names;
}

TEST(MetricsPlane, AFreshClusterHoldsEveryInstrumentAtZero) {
  protocol::Cluster cluster(quorum_chaos_config());
  const Registry merged = cluster.merged_obs();
  for (const auto& [name, c] : merged.counters()) {
    EXPECT_EQ(c.value(), 0u) << name;
  }
  for (const auto& [name, g] : merged.gauges()) {
    EXPECT_EQ(g.value(), 0) << name;
  }
  for (const auto& [name, t] : merged.timers()) {
    EXPECT_EQ(t.count(), 0u) << name;
  }
  // One of each family that used to appear only once its feature ran.
  for (const char* name :
       {"txn.commits", "txn.aborts.node_crash", "txn.externalized",
        "txn.reads.speculative", "wal.records", "wal.torn_truncations",
        "wire.msgs.decision_replicate", "wire.resent.read_request",
        "transport.frames_sent", "recovery.lost_commits", "net.messages",
        "net.dropped"}) {
    EXPECT_NE(merged.find_counter(name), nullptr) << name;
  }
  for (const char* name :
       {"txn.final_latency", "txn.speculative_latency", "net.latency"}) {
    EXPECT_NE(merged.find_timer(name), nullptr) << name;
  }
}

TEST(MetricsPlane, ReadersAgreeWithTheMergedRegistryAfterQuorumChaos) {
  const std::set<std::string> fresh = instrument_names(
      protocol::Cluster(quorum_chaos_config()).merged_obs());

  protocol::Cluster cluster(quorum_chaos_config());
  workload::SyntheticWorkload wl(cluster,
                                 workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, 60);
  pool.start_all();
  cluster.run_for(sec(1));
  cluster.metrics().set_measurement_start(cluster.now());
  cluster.run_for(sec(3));
  pool.request_stop_all();
  cluster.run_for(sec(10));
  ASSERT_TRUE(cluster.quiesce_report().clean());

  const Registry merged = cluster.merged_obs();
  // The run registered nothing new.
  EXPECT_EQ(instrument_names(merged), fresh);

  const harness::Metrics m = cluster.metrics();
  const std::uint64_t commits = merged.find_counter("txn.commits")->value();
  const std::uint64_t aborts = merged.find_counter("txn.aborts")->value();
  EXPECT_GT(commits, 0u);
  EXPECT_EQ(m.commits(), commits);
  EXPECT_EQ(m.aborts(), aborts);
  EXPECT_GT(m.aborts_of(AbortReason::NodeCrash), 0u);
  EXPECT_GE(cluster.lifetime_commits(), commits);

  std::uint64_t by_reason = 0;
  const std::string prefix = "txn.aborts.";
  for (const auto& [name, c] : merged.counters()) {
    if (name.rfind(prefix, 0) == 0) by_reason += c.value();
  }
  EXPECT_EQ(by_reason, aborts);

  EXPECT_EQ(merged.find_timer("txn.final_latency")->count(), commits);
  EXPECT_EQ(m.final_latency().count(), commits);

  const net::NetworkStats ns = cluster.network().stats();
  EXPECT_GT(ns.dropped, 0u);
  EXPECT_EQ(merged.find_counter("net.messages")->value(), ns.messages_sent);
  EXPECT_EQ(merged.find_counter("net.bytes")->value(), ns.bytes_sent);
  EXPECT_EQ(merged.find_counter("net.wan_messages")->value(),
            ns.wan_messages);
  EXPECT_EQ(merged.find_counter("net.dropped")->value(), ns.dropped);
  EXPECT_EQ(merged.find_counter("net.duplicated")->value(), ns.duplicated);
  EXPECT_EQ(merged.find_counter("net.corrupted")->value(), ns.corrupted);
  EXPECT_EQ(merged.find_counter("net.inversions")->value(), ns.inversions);
}

}  // namespace
}  // namespace str::obs
