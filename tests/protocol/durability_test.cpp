// End-to-end durability (docs/DURABILITY.md): with the WAL enabled a crash
// wipes node state for real, restart replays the logs, and the ack rule
// holds on both sides — every acknowledged commit survives a crash/restart,
// nothing a client could have seen acknowledged is lost when the decision
// record missed the durable prefix, and a decision that made it commits at
// the crash. Plus a participant's outcome-only commit record (replayed from
// its prepare or a checkpoint, crafted and after a real crash, torn off the
// log), checkpoint truncation and its trigger, double-crash idempotence,
// WAL-off neutrality, and the chaos acceptance plan run with durability +
// torn-write faults on.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "net/fault.hpp"
#include "obs/json.hpp"
#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"
#include "verify/spsi_checker.hpp"
#include "workload/client.hpp"
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
  // pre-commit must resolve to abort — the old value everywhere. The acks
  // land at 112 ms, the commit record is durable at 114 ms and the
  // decision record, appended then, at 116 ms.
  Cluster::Config cfg = wal_config(2, 2);
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(115), /*restart_at=*/msec(400));
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

TEST(Durability, DurableDecisionCommitsAtTheCrashWithoutItsApply) {
  // A crash inside the commit-durability window after the decision record
  // made the durable prefix (the torn tail kept all of it), without a
  // decision quorum: the transaction is committed. The teardown reports the
  // commit at the crash instant, the restart's replay installs its writes,
  // and the history stays SPSI-clean. The run is
  //   str_sim --workload synth-a --nodes 3 --rf 3 --uniform 100
  //     --clients 300 --warmup 0.5 --duration 1.5 --seed 190 --wal
  //     --torn-write 1.0 --crash-node 0:1.5:1.9 --verify
  Cluster::Config cfg;
  cfg.num_nodes = 3;
  cfg.replication_factor = 3;
  cfg.topology = net::Topology::symmetric(3, msec(100));
  cfg.seed = 190;
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.faults.storage.torn_write_prob = 1.0;
  const Timestamp crash_at = msec(1500);
  cfg.faults.add_crash(/*node=*/0, crash_at, /*restart_at=*/msec(1900));
  Cluster cluster(cfg);
  verify::HistoryRecorder history;
  cluster.set_history(&history);
  workload::SyntheticWorkload wl(cluster, workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  workload::ClientPool clients =
      workload::ClientPool::with_total(cluster, wl, 300);
  clients.start_all();
  cluster.run_for(sec(2));
  clients.request_stop_all();
  cluster.run_for(sec(10));

  bool committed_at_crash = false;
  for (const verify::WriteSetEvent& ev : history.final_commits()) {
    committed_at_crash |= ev.tx.node == 0 && ev.at == crash_at;
  }
  EXPECT_TRUE(committed_at_crash);
  history.canonicalize();
  verify::SpsiChecker checker(history);
  const std::vector<std::string> violations = checker.check_all();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_TRUE(cluster.quiesce_report().clean());
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
  // Checkpoint at every tick that follows an append.
  cfg.protocol.durability.checkpoint_min_bytes = 1;
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
  // log that grew gets rewritten down to a single checkpoint record.
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

// -- a participant's payloads are logged once ---------------------------------

/// Every record of node `n`'s log of partition `p`, in log order.
std::vector<storage::WalRecord> log_records(Cluster& cluster, NodeId n,
                                            PartitionId p) {
  std::vector<storage::WalRecord> records;
  const storage::Medium& medium = cluster.node(n).replica(p)->wal()->medium();
  storage::scan_wal(medium.durable_chunks(),
                    [&](const storage::WalRecord& rec) {
                      records.push_back(rec);
                    });
  return records;
}

/// The record of `type` that `tx` logged, or nullptr.
const storage::WalRecord* find_record(
    const std::vector<storage::WalRecord>& records,
    storage::WalRecordType type, const TxId& tx) {
  for (const storage::WalRecord& rec : records) {
    if (rec.type == type && rec.tx == tx) return &rec;
  }
  return nullptr;
}

/// Newest version of `key` in node `n`'s replica of partition `p`.
store::StoreReadResult newest(Cluster& cluster, NodeId n, PartitionId p,
                              Key key) {
  return cluster.node(n).replica(p)->store().peek(key, kTsInfinity);
}

/// Two nodes, both replicas of partition 0: node 0 coordinates a write to
/// its key 1, and node 1 is the participant that logs a kPrepare for it.
struct ParticipantWrite {
  Cluster cluster{wal_config(2, 2)};
  TxProbe w;

  ParticipantWrite() {
    cluster.load(key_at(0, 1), "old");
    cluster.run_for(msec(10));
    test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                    "new", w);
    cluster.run_for(sec(1));
  }
};

TEST(Durability, ParticipantLogsItsWritesOnceAndReplaysThemFromThePrepare) {
  ParticipantWrite p;
  ASSERT_EQ(p.w.result.outcome, TxOutcome::Committed);
  // The participant's payload is in its kPrepare alone; its lazy kCommit
  // is the outcome. The coordinator's barrier record lists the write.
  const auto slave = log_records(p.cluster, 1, 0);
  const storage::WalRecord* prepare =
      find_record(slave, storage::WalRecordType::kPrepare, p.w.tx);
  const storage::WalRecord* commit =
      find_record(slave, storage::WalRecordType::kCommit, p.w.tx);
  ASSERT_NE(prepare, nullptr);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(prepare->updates.size(), 1u);
  EXPECT_TRUE(commit->updates.empty());
  const auto coordinator = log_records(p.cluster, 0, 0);
  const storage::WalRecord* barrier =
      find_record(coordinator, storage::WalRecordType::kCommit, p.w.tx);
  ASSERT_NE(barrier, nullptr);
  ASSERT_EQ(barrier->updates.size(), 1u);
  EXPECT_EQ(*barrier->updates[0].second, "new");

  // Replay finalizes the prepare at the commit's timestamp: nothing is
  // left in doubt for orphan recovery to chase.
  p.cluster.crash_node(1);
  p.cluster.restart_node(1);
  const store::StoreReadResult v = newest(p.cluster, 1, 0, key_at(0, 1));
  EXPECT_EQ(v.kind, store::ReadKind::Committed);
  EXPECT_EQ(v.writer, p.w.tx);
  EXPECT_EQ(v.ts, commit->ts);
  EXPECT_EQ(v.value_str(), "new");
  EXPECT_FALSE(p.cluster.node(1).replica(0)->store().has_uncommitted(p.w.tx));
  EXPECT_EQ(p.cluster.node(1).replica(0)->awaiting_decisions(), 0u);

  TxProbe r;
  test::run_reads(p.cluster, p.cluster.node(1).coordinator(), {key_at(0, 1)},
                  r);
  p.cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "new");
  EXPECT_TRUE(p.cluster.quiesce_report().clean());
}

TEST(Durability, TornOutcomeOnlyCommitLeavesThePrepareInDoubt) {
  ParticipantWrite p;
  ASSERT_EQ(p.w.result.outcome, TxOutcome::Committed);
  const auto slave = log_records(p.cluster, 1, 0);
  ASSERT_FALSE(slave.empty());
  ASSERT_EQ(slave.back().type, storage::WalRecordType::kCommit);
  ASSERT_EQ(slave.back().tx, p.w.tx);

  // The crash tears the commit record's last byte off the log.
  p.cluster.crash_node(1);
  storage::Medium& medium = p.cluster.node(1).replica(0)->wal()->medium();
  medium.truncate_durable(medium.durable_size() - 1);
  p.cluster.restart_node(1);
  EXPECT_EQ(counter_value(p.cluster, "wal.torn_truncations"), 1u);
  // The prepare survived: the pre-commit is re-staged and in doubt.
  EXPECT_EQ(newest(p.cluster, 1, 0, key_at(0, 1)).kind,
            store::ReadKind::Blocked);
  EXPECT_TRUE(p.cluster.node(1).replica(0)->store().has_uncommitted(p.w.tx));
  EXPECT_EQ(p.cluster.node(1).replica(0)->awaiting_decisions(), 1u);

  // Orphan recovery asks the coordinator, which answers Committed.
  p.cluster.run_for(sec(5));
  EXPECT_EQ(p.cluster.node(1).replica(0)->awaiting_decisions(), 0u);
  const store::StoreReadResult v = newest(p.cluster, 1, 0, key_at(0, 1));
  EXPECT_EQ(v.kind, store::ReadKind::Committed);
  EXPECT_EQ(v.value_str(), "new");
  EXPECT_TRUE(p.cluster.quiesce_report().clean());
}

TEST(Durability, OutcomeOnlyCommitFinalizesAPreCommitACheckpointReStaged) {
  // A checkpoint taken while a remote transaction was pre-committed here,
  // then that transaction's outcome-only commit: replay finalizes the
  // pre-commit the image re-staged.
  Cluster cluster(wal_config(2, 2));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));
  cluster.crash_node(1);

  const TxId seed{kInvalidNode, 1};
  const TxId remote{0, 77};
  std::vector<storage::CheckpointVersion> image;
  image.push_back({key_at(0, 1), 0, VersionState::Committed, seed,
                   std::make_shared<const Value>("old")});
  image.push_back({key_at(0, 1), msec(5), VersionState::PreCommitted, remote,
                   std::make_shared<const Value>("new")});
  storage::LogBuffer log;
  storage::encode_checkpoint(log, /*watermark=*/0, image);
  storage::encode_commit(log, remote, msec(6), storage::WalUpdates{});
  cluster.node(1).replica(0)->wal()->rewrite(std::move(log));

  cluster.restart_node(1);
  const store::StoreReadResult v = newest(cluster, 1, 0, key_at(0, 1));
  EXPECT_EQ(v.kind, store::ReadKind::Committed);
  EXPECT_EQ(v.writer, remote);
  EXPECT_EQ(v.ts, msec(6));
  EXPECT_EQ(v.value_str(), "new");
  EXPECT_FALSE(cluster.node(1).replica(0)->store().has_uncommitted(remote));
  EXPECT_EQ(cluster.node(1).replica(0)->awaiting_decisions(), 0u);
}

TEST(Durability, CheckpointedOwnVersionCommitsWhenItsDecisionSurvived) {
  // A coordinator's checkpoint taken between its commit barrier and its
  // apply holds its own transaction's version as LocalCommitted, and the
  // barrier record that listed the write is gone with the truncated log.
  // The decision log says the transaction committed: replay installs the
  // version as Committed at the decision's commit ts. An own version
  // without a decision is still presumed aborted.
  Cluster cluster(wal_config(2, 2));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));
  cluster.crash_node(0);

  const TxId seed{kInvalidNode, 1};
  const TxId decided{0, 77};
  const TxId undecided{0, 78};
  std::vector<storage::CheckpointVersion> image;
  image.push_back({key_at(0, 1), 0, VersionState::Committed, seed,
                   std::make_shared<const Value>("old")});
  image.push_back({key_at(0, 1), msec(5), VersionState::LocalCommitted,
                   decided, std::make_shared<const Value>("new")});
  image.push_back({key_at(0, 2), msec(5), VersionState::LocalCommitted,
                   undecided, std::make_shared<const Value>("gone")});
  storage::LogBuffer log;
  storage::encode_checkpoint(log, /*watermark=*/0, image);
  cluster.node(0).replica(0)->wal()->rewrite(std::move(log));
  storage::LogBuffer decisions;
  storage::encode_decision(decisions, decided, msec(6), msec(6));
  cluster.node(0).decision_wal()->rewrite(std::move(decisions));

  cluster.restart_node(0);
  const store::StoreReadResult v = newest(cluster, 0, 0, key_at(0, 1));
  EXPECT_EQ(v.kind, store::ReadKind::Committed);
  EXPECT_EQ(v.writer, decided);
  EXPECT_EQ(v.ts, msec(6));
  EXPECT_EQ(v.value_str(), "new");
  EXPECT_EQ(newest(cluster, 0, 0, key_at(0, 2)).kind,
            store::ReadKind::NotFound);
  EXPECT_EQ(cluster.node(0).replica(0)->store().uncommitted_txn_count(), 0u);
}

TEST(Durability, CrashReplaysOutcomeOnlyCommitsOntoCheckpointedPreCommits) {
  // The same replay branch reached by a real crash: checkpoints at every
  // 100 ms tick catch remote transactions pre-committed on node 1, whose
  // outcome-only commits follow in the logs the crash leaves.
  Cluster::Config cfg =
      small_config(3, 3, ProtocolConfig::str(), msec(100), /*seed=*/1);
  cfg.jitter_frac = 0.05;
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.checkpoint_min_bytes = 1;
  cfg.protocol.gc_interval = msec(100);
  Cluster cluster(cfg);
  workload::SyntheticWorkload wl(cluster, workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  workload::ClientPool clients =
      workload::ClientPool::with_total(cluster, wl, 60);
  clients.start_all();
  cluster.run_for(msec(1550));
  cluster.crash_node(1);

  // Outcome-only commits whose pre-commit the log's checkpoint re-staged.
  std::vector<std::pair<PartitionId, TxId>> finalized;
  for (const auto& [pid, actor] : cluster.node(1).replicas()) {
    std::vector<TxId> restaged;
    storage::scan_wal(
        actor->wal()->medium().durable_chunks(),
        [&](const storage::WalRecord& rec) {
          if (rec.type == storage::WalRecordType::kCheckpoint) {
            restaged.clear();
            for (const storage::CheckpointVersion& v : rec.snapshot) {
              if (v.state == VersionState::PreCommitted) {
                restaged.push_back(v.writer);
              }
            }
          } else if (rec.type == storage::WalRecordType::kCommit &&
                     rec.updates.empty() &&
                     std::find(restaged.begin(), restaged.end(), rec.tx) !=
                         restaged.end()) {
            finalized.emplace_back(pid, rec.tx);
          }
        });
  }
  EXPECT_GT(finalized.size(), 0u);

  // Replay is synchronous: each of them is committed on node 1 right after
  // the restart, before orphan recovery could finalize it instead.
  cluster.restart_node(1);
  for (const auto& [pid, tx] : finalized) {
    EXPECT_FALSE(cluster.node(1).replica(pid)->store().has_uncommitted(tx))
        << "n" << tx.node << "#" << tx.seq << " in partition " << pid;
  }
  clients.request_stop_all();
  cluster.run_for(sec(10));
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, CheckpointWaitsForBytesAppendedSinceTheLastOne) {
  // checkpoint_min_bytes counts what was appended since the last
  // checkpoint: an image larger than the threshold is not snapshot again
  // at the next idle tick, a log that grew by the threshold since is.
  Cluster::Config cfg = wal_config(2, 2);
  cfg.protocol.durability.checkpoint_min_bytes = 512;
  Cluster cluster(cfg);
  for (std::uint64_t row = 1; row <= 32; ++row) {
    cluster.load(key_at(0, row), std::string(64, 's'));
  }
  // The first maintenance tick (2 s) checkpoints both replicas of
  // partition 0; partition 1's logs are empty.
  cluster.run_for(msec(2100));
  EXPECT_EQ(counter_value(cluster, "wal.checkpoints"), 2u);
  for (NodeId n : {0u, 1u}) {
    const storage::Wal& wal = *cluster.node(n).replica(0)->wal();
    EXPECT_GT(wal.end_offset(), 512u) << "the image alone passes the threshold";
    EXPECT_EQ(wal.appended_since_checkpoint(), 0u);
  }

  cluster.run_for(sec(2));  // the 4 s tick: nothing was appended
  EXPECT_EQ(counter_value(cluster, "wal.checkpoints"), 2u);

  // A 600-byte write appends more than the threshold to both logs: the
  // coordinator's barrier record on node 0, the prepare on node 1.
  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  std::string(600, 'w'), w);
  cluster.run_for(sec(1));
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  for (NodeId n : {0u, 1u}) {
    EXPECT_GE(cluster.node(n).replica(0)->wal()->appended_since_checkpoint(),
              512u);
  }
  cluster.run_for(sec(1));  // the 6 s tick
  EXPECT_EQ(counter_value(cluster, "wal.checkpoints"), 4u);
  for (NodeId n : {0u, 1u}) {
    EXPECT_EQ(cluster.node(n).replica(0)->wal()->appended_since_checkpoint(),
              0u);
  }
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

/// Where the up replicas of a partition disagree after a run: for each key,
/// the newest committed version (commit ts, writer, value) of every up
/// replica, one line per key whose replicas do not all hold the same.
std::vector<std::string> replica_divergences(Cluster& cluster) {
  struct Newest {
    Timestamp ts = 0;
    TxId writer;
    Value value;
    bool operator==(const Newest&) const = default;
  };
  std::vector<std::string> out;
  for (PartitionId p = 0; p < cluster.pmap().num_partitions(); ++p) {
    std::map<Key, std::map<NodeId, Newest>> keys;
    std::vector<NodeId> up;
    for (NodeId n : cluster.pmap().replicas(p)) {
      if (!cluster.node_up(n)) continue;
      up.push_back(n);
      cluster.node(n).replica(p)->store().for_each_version_sorted(
          [&](Key key, const store::Version& v) {
            if (v.state != VersionState::Committed) return;
            auto [it, fresh] = keys[key].try_emplace(n);
            if (fresh || v.ts > it->second.ts) {
              it->second = {v.ts, v.writer(), v.value ? *v.value : Value()};
            }
          });
    }
    for (const auto& [key, held] : keys) {
      const Newest& first = held.begin()->second;
      const bool agree =
          held.size() == up.size() &&
          std::all_of(held.begin(), held.end(),
                      [&](const auto& h) { return h.second == first; });
      if (agree) continue;
      std::ostringstream line;
      line << "p" << p << " key " << key << ":";
      for (NodeId n : up) {
        auto it = held.find(n);
        line << " n" << n << "=";
        if (it == held.end()) {
          line << "none";
        } else {
          line << it->second.writer.node << "." << it->second.writer.seq
               << "@" << it->second.ts;
        }
      }
      out.push_back(line.str());
    }
  }
  return out;
}

TEST(Durability, QuorumChaosRestartLeavesReplicasInAgreement) {
  // CI's chaos plan under --wal --decision-quorum 2, as str_sim runs it at
  // seed 6 (9 EC2 regions, rf 6, 50 synth-a clients, 1 s warmup, 8 s
  // window, 10 s fault drain). Node 3 crashes at 5 s and restarts at 8 s.
  // Its transaction 3.11 committed at 0.9987 s while a checkpoint of its
  // replicas of p0, p2 and p3 caught the versions between the commit
  // barrier and the apply; replay must install them from the decision log
  // instead of serving the preload (p0) or nothing (p2, p3).
  Cluster::Config cfg;
  cfg.seed = 6;
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 2;
  std::string error;
  ASSERT_TRUE(net::FaultPlan::parse("drop 0.05\n"
                                    "dup 0.02\n"
                                    "partition 0 1 4.0 8.0\n"
                                    "crash 3 5.0 8.0\n",
                                    cfg.faults, error))
      << error;
  cfg.faults.link.heal_at = sec(9);  // the window's end, as run_experiment
  Cluster cluster(cfg);
  workload::SyntheticWorkload wl(cluster, workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  workload::ClientPool clients =
      workload::ClientPool::with_total(cluster, wl, 50);
  clients.start_all();
  cluster.run_for(sec(1));
  cluster.reset_obs();
  cluster.run_for(sec(8));
  clients.request_stop_all();
  cluster.run_for(sec(10));

  ASSERT_TRUE(cluster.quiesce_report().clean());
  EXPECT_GT(counter_value(cluster, "wal.replayed_records"), 0u);
  EXPECT_EQ(counter_value(cluster, "recovery.lost_commits"), 0u);
  const std::vector<std::string> diverged = replica_divergences(cluster);
  EXPECT_TRUE(diverged.empty())
      << diverged.size() << " keys diverge, first: " << diverged.front();
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
