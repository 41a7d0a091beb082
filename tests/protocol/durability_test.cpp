// End-to-end durability (docs/DURABILITY.md): with the WAL enabled a crash
// wipes node state for real, restart replays the logs, and the ack rule
// holds on both sides — every acknowledged commit survives a crash/restart,
// and nothing a client could have seen acknowledged is lost when the
// decision record missed the durable prefix. Plus checkpoint truncation,
// double-crash idempotence, WAL-off neutrality, and the chaos acceptance
// plan run with durability + torn-write faults on.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"

namespace str::protocol {
namespace {

using test::key_at;
using test::small_config;
using test::TxProbe;

std::uint64_t counter_value(const Cluster& cluster, const std::string& name) {
  const obs::Registry merged = cluster.merged_obs();
  const obs::Counter* c = merged.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

Cluster::Config wal_config(std::uint32_t nodes, std::uint32_t rf,
                           std::uint64_t seed = 1) {
  Cluster::Config cfg = small_config(nodes, rf, ProtocolConfig::str(),
                                     msec(100), seed);
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  return cfg;
}

TEST(Durability, AcknowledgedCommitSurvivesCrashAndReplay) {
  Cluster::Config cfg = wal_config(2, 2);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  // Crash the coordinator node AFTER the ack: its store is wiped (the WAL
  // earns what used to be assumed), then rebuilt from the log on restart.
  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  EXPECT_GT(counter_value(cluster, "wal.replayed_records"), 0u);

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "new");
  EXPECT_EQ(r1.reads[0].value, "new");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, UndurableDecisionIsPresumedAbortedEverywhere) {
  // Crash inside the commit-durability window: the participant acks landed,
  // the partition log's commit record is durable, but the decision record
  // is still unsynced. The client must see a NodeCrash abort (nothing was
  // acknowledged), the restarted node's replay must NOT install the commit
  // record (no replayed decision validates it), and the slave's orphaned
  // pre-commit must resolve to abort — the old value everywhere.
  Cluster::Config cfg = wal_config(2, 2);
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(119), /*restart_at=*/msec(400));
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(w.result.abort_reason, AbortReason::NodeCrash);

  // Orphan probe hits the restarted coordinator; no decision => abort.
  cluster.run_for(sec(5));
  EXPECT_TRUE(cluster.quiesce_report().clean());

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "old");
  EXPECT_EQ(r1.reads[0].value, "old");
}

TEST(Durability, DoubleCrashDoubleRestartReplaysIdempotently) {
  Cluster::Config cfg = wal_config(2, 2);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v0");
  cluster.run_for(msec(10));

  TxProbe w1;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "v1", w1);
  cluster.run_for(sec(1));
  ASSERT_EQ(w1.result.outcome, TxOutcome::Committed);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  const std::uint64_t replayed_once =
      counter_value(cluster, "wal.replayed_records");
  EXPECT_GT(replayed_once, 0u);

  // Write again on the replayed store, then crash/restart twice in a row
  // with no traffic in between: the second replay walks the identical log
  // (plus the records the first replay may have re-appended) and must land
  // in the same state.
  TxProbe w2;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "v2", w2);
  cluster.run_for(sec(1));
  ASSERT_EQ(w2.result.outcome, TxOutcome::Committed);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(msec(50));
  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  EXPECT_GT(counter_value(cluster, "wal.replayed_records"), replayed_once);

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "v2");
  EXPECT_EQ(r1.reads[0].value, "v2");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, CheckpointTruncatesTheLogAndReplayStartsFromIt) {
  Cluster::Config cfg = wal_config(2, 2);
  cfg.protocol.durability.checkpoint_min_bytes = 1;  // checkpoint every tick
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  for (int i = 0; i < 4; ++i) {
    TxProbe w;
    test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                    test::numbered("g", i), w);
    cluster.run_for(sec(1));
    ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  }
  // Maintenance runs on gc_interval; with the 1-byte threshold every idle
  // log gets rewritten down to a single checkpoint record.
  cluster.run_for(sec(5));
  EXPECT_GT(counter_value(cluster, "wal.checkpoints"), 0u);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "g3");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, WalOffRegistersNoWalCountersAndKeepsMagicDurability) {
  // With durability off the wal.* counters are registered (every run
  // exports the same instruments) but nothing ever counts into them, and a
  // crashed node's store still "survives".
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  auto expect_zero_wal_counters = [&cluster] {
    const obs::Registry merged = cluster.merged_obs();
    for (const char* name : {"wal.records", "wal.flushes",
                             "wal.flushed_bytes", "wal.checkpoints",
                             "wal.replayed_records", "wal.torn_truncations"}) {
      const obs::Counter* c = merged.find_counter(name);
      ASSERT_NE(c, nullptr) << name;
      EXPECT_EQ(c->value(), 0u) << name;
    }
  };
  expect_zero_wal_counters();

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "new");  // magic durability, as before
  expect_zero_wal_counters();  // the restart replayed nothing
}

// ---------------------------------------------------------------------------
// Chaos acceptance with durability on: drops + dups + a partition window +
// a mid-run crash/restart + torn-write faults. Safety, liveness, replay
// actually running, and bit-identical determinism.

harness::ExperimentConfig wal_chaos_config(std::uint64_t seed,
                                           const std::string& metrics_out) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.cluster.jitter_frac = 0.05;
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.faults.link.drop_prob = 0.05;
  cfg.cluster.faults.link.dup_prob = 0.02;
  cfg.cluster.faults.storage.torn_write_prob = 0.5;
  cfg.cluster.faults.add_partition(0, 1, sec(3), sec(13));
  cfg.cluster.faults.add_crash(2, sec(4), sec(6));
  cfg.total_clients = 12;
  cfg.warmup = sec(1);
  cfg.duration = sec(8);
  cfg.drain = sec(3);
  cfg.verify = true;
  cfg.metrics_out = metrics_out;
  return cfg;
}

harness::WorkloadFactory synth_factory() {
  return [](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(
        c, workload::SyntheticConfig::synth_a());
  };
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Durability, ChaosWithWalIsSafeLiveAndDeterministic) {
  const std::string out1 = testing::TempDir() + "wal_chaos_metrics_1.json";
  const std::string out2 = testing::TempDir() + "wal_chaos_metrics_2.json";

  const harness::ExperimentResult r1 =
      run_experiment(wal_chaos_config(4242, out1), synth_factory());
  EXPECT_GT(r1.commits, 0u);
  EXPECT_GT(r1.net_dropped, 0u);
  EXPECT_TRUE(r1.violations.empty()) << r1.violations.front();
  EXPECT_TRUE(r1.quiesce.clean())
      << "live=" << r1.quiesce.live_txns
      << " parked=" << r1.quiesce.parked_reads
      << " locks=" << r1.quiesce.uncommitted_txns
      << " orphans=" << r1.quiesce.orphans;

  const harness::ExperimentResult r2 =
      run_experiment(wal_chaos_config(4242, out2), synth_factory());
  ASSERT_TRUE(r1.exports_ok && r2.exports_ok);
  const std::string m1 = slurp(out1);
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, slurp(out2));
  // The replay actually exercised the WAL (visible in the exported
  // metrics; both runs identical, so checking the bytes covers both). Every
  // run exports wal.records, so its value is what shows it.
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(m1, doc, error)) << error;
  EXPECT_GT(doc.find("counters")->find("wal.records")->u(), 0u);
}

}  // namespace
}  // namespace str::protocol
