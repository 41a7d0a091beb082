// Protocol-level timeout/retry/recovery under injected faults: read retry
// with replica failover, prepare re-fan-out, idempotent duplicate handling,
// coordinator crash semantics, orphan resolution (decision log, presumed
// abort, the census that aborts an orphan of a dead coordinator in every
// mode), and the end-to-end chaos acceptance run (safety + clean quiesce +
// deterministic replay).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "protocol/partition_actor.hpp"
#include "tests/protocol/test_util.hpp"
#include "verify/spsi_checker.hpp"
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

TEST(Recovery, ReadRetriesThroughPartitionThenSucceeds) {
  // rf=1: the only replica of node 1's partition is across a partition that
  // heals at 900ms. The first request and the first retry are cut; the
  // second retry (bounded backoff: 500ms, then 1s) lands after the heal.
  Cluster::Config cfg = small_config(2, 1, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.add_partition(0, 1, 0, msec(900));
  Cluster cluster(cfg);
  cluster.load(key_at(1, 5), "v1");
  cluster.run_for(msec(10));

  TxProbe probe;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(1, 5)},
                  probe);
  cluster.run_for(sec(3));
  ASSERT_TRUE(probe.done);
  EXPECT_EQ(probe.result.outcome, TxOutcome::Committed);
  ASSERT_EQ(probe.reads.size(), 1u);
  EXPECT_EQ(probe.reads[0].value, "v1");
  EXPECT_GE(counter_value(cluster, "rpc.retries"), 1u);
  EXPECT_GE(counter_value(cluster, "rpc.timeouts"), 1u);
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Recovery, ReadRetryBudgetExhaustionAbortsWithTimeout) {
  // The partition never heals: after kMaxReadRetries the transaction must
  // abort (reason Timeout) instead of waiting forever, and nothing leaks.
  Cluster::Config cfg = small_config(2, 1, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.add_partition(0, 1, 0, sec(60));
  Cluster cluster(cfg);
  cluster.load(key_at(1, 5), "v1");
  cluster.run_for(msec(10));

  TxProbe probe;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(1, 5)},
                  probe);
  // Timeouts: 0.5 + 1 + 2 + 2 + 2 s (doubling, capped at 2s) = 7.5s.
  cluster.run_for(sec(10));
  ASSERT_TRUE(probe.done);
  EXPECT_EQ(probe.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(probe.result.abort_reason, AbortReason::Timeout);
  EXPECT_EQ(counter_value(cluster, "rpc.retries"), kMaxReadRetries);
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Recovery, PrepareRetriesAfterDroppedPrepareAndCommits) {
  // One-way cut 0 -> 1 swallows the initial PrepareRequest; replies flow.
  // The prepare timer re-sends after the heal and the commit completes.
  Cluster::Config cfg = small_config(2, 1, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.partitions.push_back({0, 1, 0, msec(300)});
  Cluster cluster(cfg);
  cluster.load(key_at(1, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(1, 1)},
                  "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Committed);
  EXPECT_GE(counter_value(cluster, "rpc.retries"), 1u);
  EXPECT_TRUE(cluster.quiesce_report().clean());

  // The committed value reached the (sole) replica at node 1.
  TxProbe r;
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(1, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "new");
}

TEST(Recovery, DuplicatedDeliveriesEverywhereStaySpsiClean) {
  // Every message delivered twice: prepares, replicates, replies, commit and
  // abort fan-outs. Dedup (req ids, store-derived idempotence, ack sets)
  // must keep the history SPSI-clean and the stores single-versioned.
  Cluster::Config cfg = small_config(3, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.link.dup_prob = 1.0;
  Cluster cluster(cfg);
  verify::HistoryRecorder history;
  cluster.set_history(&history);
  for (NodeId n = 0; n < 3; ++n) cluster.load(key_at(n, 1), "init");
  cluster.run_for(msec(10));

  // Cross-node RMWs, partially overlapping in time and keys.
  TxProbe p0, p1, p2;
  test::run_rmw(cluster, cluster.node(0).coordinator(),
                {key_at(0, 1), key_at(1, 1)}, "a", p0);
  test::run_rmw(cluster, cluster.node(1).coordinator(),
                {key_at(1, 1), key_at(2, 1)}, "b", p1);
  cluster.run_for(sec(2));
  test::run_rmw(cluster, cluster.node(2).coordinator(),
                {key_at(2, 1), key_at(0, 1)}, "c", p2);
  cluster.run_for(sec(3));

  ASSERT_TRUE(p0.done && p1.done && p2.done);
  EXPECT_GT(cluster.network().stats().duplicated, 0u);
  verify::SpsiChecker checker(history);
  EXPECT_TRUE(checker.check_all().empty());
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Recovery, CoordinatorCrashAbortsItsTransactions) {
  // Crash the coordinator while its replicate fan-out is in flight. The
  // transaction aborts with NodeCrash; the prepared participant on node 1
  // finds the coordinator down on enough consecutive orphan probes and
  // unilaterally aborts, releasing the pre-commit lock.
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  // Replicate is in flight (one-way 50ms); crash before any reply returns.
  cluster.scheduler().schedule_at(msec(30),
                                  [&cluster]() { cluster.crash_node(0); });
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(w.result.abort_reason, AbortReason::NodeCrash);
  EXPECT_FALSE(cluster.node_up(0));

  // The participant is still holding the orphaned pre-commit...
  EXPECT_EQ(cluster.quiesce_report().orphans, 1u);
  EXPECT_EQ(cluster.quiesce_report().uncommitted_txns, 1u);

  // ...until kOrphanDownProbes census rounds of its replica group, the
  // coordinator alone without a decision quorum, find no copy (1s first
  // check + 1s + 2s backed-off rechecks).
  cluster.run_for(sec(5));
  EXPECT_EQ(counter_value(cluster, "txn.orphan_aborts"), 1u);
  EXPECT_TRUE(cluster.quiesce_report().clean());

  // The old value survived on the live replica.
  TxProbe r;
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "old");
}

TEST(Recovery, OrphanResolvedFromDecisionLogAfterRestart) {
  // Same staging, but the coordinator restarts before the first orphan
  // probe. Its durable decision log (populated by the crash-time aborts)
  // answers the probe, so the orphan resolves without waiting for the
  // failure detector.
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(30), /*restart_at=*/msec(300));
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.abort_reason, AbortReason::NodeCrash);
  EXPECT_TRUE(cluster.node_up(0));
  EXPECT_EQ(cluster.quiesce_report().orphans, 1u);

  // First probe fires ~1.05s (tracked when the replicate landed at ~60ms,
  // orphan_timeout 1s) and hits the restarted coordinator's decision log.
  cluster.run_for(sec(1));
  EXPECT_EQ(counter_value(cluster, "txn.orphan_aborts"), 1u);
  EXPECT_TRUE(cluster.quiesce_report().clean());

  // Both replicas are usable and agree after the recovery.
  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "old");
  EXPECT_EQ(r1.reads[0].value, "old");
}

// -- one census settles every orphan, in every mode ---------------------------

/// Node 0 writes a key of node 1's partition (replicas 1 and 2) and dies for
/// good at 100 ms, in the middle of 2PC: its prepare reached node 1 at 60 ms
/// and node 1's replicate reaches node 2 at 110 ms (2 ms later with the
/// WAL: the one fsync of its prepare), but no reply makes it back and no
/// decision exists.
/// Both participants are left holding an orphan. `quorum` 0 runs without a
/// WAL and without a decision quorum.
Cluster::Config mid_commit_kill_config(std::uint32_t quorum) {
  Cluster::Config cfg = small_config(3, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  if (quorum != 0) {
    cfg.protocol.durability.wal_enabled = true;
    cfg.protocol.durability.decision_quorum = quorum;
  }
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100));  // permanent
  return cfg;
}

struct MidCommitKill {
  Cluster cluster;
  TxProbe w;

  explicit MidCommitKill(const Cluster::Config& cfg) : cluster(cfg) {
    cluster.load(key_at(1, 1), "old");
    cluster.run_for(msec(10));
    test::run_write(cluster, cluster.node(0).coordinator(), {key_at(1, 1)},
                    "new", w);
    cluster.run_for(msec(90));
  }

  /// Run to `until` in 1 ms steps; the instant each orphan resolved.
  std::vector<Timestamp> resolutions(Timestamp until) {
    std::vector<Timestamp> at;
    std::size_t orphans = cluster.quiesce_report().orphans;
    while (cluster.now() < until) {
      cluster.run_for(msec(1));
      const std::size_t left = cluster.quiesce_report().orphans;
      for (std::size_t i = left; i < orphans; ++i) at.push_back(cluster.now());
      orphans = left;
    }
    return at;
  }
};

TEST(Recovery, OneCensusAbortsAMidCommitOrphanInEveryMode) {
  // Each participant presumes abort on its kOrphanDownProbes-th (3rd)
  // census round, at the orphan checks 1, 2 and 3 s after it was tracked.
  // Without a quorum, and at quorum 1, the dead coordinator is the whole
  // group: every round is complete at once and sends nothing, so the
  // orphans abort exactly 3 s after their prepares landed. At quorum 2
  // each round asks the one other surviving member, which holds no copy;
  // the third answer, one RTT after the check, aborts.
  struct Mode {
    std::uint32_t quorum;
    std::vector<Timestamp> resolved_at;
    std::uint64_t probes;
  };
  const Mode modes[] = {
      {0, {msec(3060), msec(3110)}, 0},
      {1, {msec(3060), msec(3112)}, 0},
      {2, {msec(3160), msec(3212)}, 2 * 3},
  };
  for (const Mode& m : modes) {
    const std::string at = "quorum=" + std::to_string(m.quorum);
    MidCommitKill k(mid_commit_kill_config(m.quorum));
    ASSERT_EQ(k.cluster.quiesce_report().orphans, 1u) << at;
    EXPECT_EQ(k.resolutions(sec(10)), m.resolved_at) << at;
    ASSERT_TRUE(k.w.done) << at;
    EXPECT_EQ(k.w.result.abort_reason, AbortReason::NodeCrash) << at;
    EXPECT_EQ(counter_value(k.cluster, "wire.msgs.decision_request"), m.probes)
        << at;
    EXPECT_EQ(counter_value(k.cluster, "wire.msgs.decision_reply"), m.probes)
        << at;
    EXPECT_EQ(counter_value(k.cluster, "txn.orphan_aborts"), 2u) << at;
    EXPECT_EQ(counter_value(k.cluster, "recovery.lost_commits"), 0u) << at;
    EXPECT_TRUE(k.cluster.quiesce_report().clean()) << at;
  }
}

TEST(Recovery, DuplicatedOrLateCensusAnswersCountOncePerRound) {
  // Every message delivered twice: each member answers each probe twice,
  // and each answer arrives twice, yet every round counts once — the
  // orphans still abort on the third round, at the same instants as
  // without duplicates: the duplicated prepare's re-ack rides the sync of
  // node 1's prepare that is already in flight.
  {
    Cluster::Config cfg = mid_commit_kill_config(2);
    cfg.faults.link.dup_prob = 1.0;
    MidCommitKill k(cfg);
    EXPECT_EQ(k.resolutions(sec(10)),
              (std::vector<Timestamp>{msec(3160), msec(3212)}));
    EXPECT_EQ(counter_value(k.cluster, "wire.msgs.decision_request"), 2u * 3);
    EXPECT_EQ(counter_value(k.cluster, "wire.msgs.decision_reply"), 4u * 3);
    EXPECT_EQ(counter_value(k.cluster, "txn.orphan_aborts"), 2u);
    EXPECT_TRUE(k.cluster.quiesce_report().clean());
  }
  // A late answer: node 1's first round closed at 1.16 s and its second
  // opens at 2.06 s. Member 2's no-copy answer arriving in between, twice,
  // belongs to no open round and counts for nothing.
  MidCommitKill k(mid_commit_kill_config(2));
  k.cluster.run_for(msec(1400));
  ASSERT_EQ(k.cluster.now(), msec(1500));
  DecisionReply late;
  late.tx = k.w.tx;
  late.partition = PartitionMap::partition_of(key_at(1, 1));
  late.decision = TxDecision::Unknown;
  late.from = 2;
  PartitionActor* participant = k.cluster.node(1).replica(late.partition);
  participant->on_decision_reply(late);
  participant->on_decision_reply(late);
  EXPECT_EQ(participant->awaiting_decisions(), 1u);
  EXPECT_EQ(k.resolutions(sec(10)),
            (std::vector<Timestamp>{msec(3160), msec(3212)}));
  EXPECT_EQ(counter_value(k.cluster, "txn.orphan_aborts"), 2u);
}

TEST(Recovery, HeavyDropsAndDupsKeepReplicasConverged) {
  // The scenario the payload-copy rule guards: a duplicated prepare whose
  // re-replication must carry the full write set even when the original
  // replicate to a slave was dropped. Hammer cross-node writes through a
  // lossy, duplicating network, heal, drain — then both replicas of every
  // partition must serve the same committed value (a slave that acked a
  // prepare without storing the writes would diverge silently).
  Cluster::Config cfg = small_config(3, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  cfg.faults.link.drop_prob = 0.25;
  cfg.faults.link.dup_prob = 0.5;
  cfg.faults.link.heal_at = sec(8);
  Cluster cluster(cfg);
  for (NodeId n = 0; n < 3; ++n) cluster.load(key_at(n, 1), "init");
  cluster.run_for(msec(10));

  std::vector<std::unique_ptr<TxProbe>> probes;
  for (int round = 0; round < 8; ++round) {
    for (NodeId n = 0; n < 3; ++n) {
      probes.push_back(std::make_unique<TxProbe>());
      test::run_write(cluster, cluster.node(n).coordinator(),
                      {key_at((n + 1) % 3, 1)},
                      test::numbered("r", round).append(test::numbered("n", n)),
                      *probes.back());
      cluster.run_for(msec(250));
    }
  }
  cluster.run_for(sec(40));  // heal + retries + orphan resolution + drain
  std::uint64_t commits = 0;
  for (const auto& p : probes) {
    ASSERT_TRUE(p->done);
    if (p->result.outcome == TxOutcome::Committed) ++commits;
  }
  EXPECT_GT(commits, 0u);
  EXPECT_GT(cluster.network().stats().duplicated, 0u);
  EXPECT_GT(cluster.network().stats().dropped, 0u);
  EXPECT_TRUE(cluster.quiesce_report().clean());

  // Replica agreement, read through each replica's local store.
  for (NodeId p = 0; p < 3; ++p) {
    const Key k = key_at(p, 1);
    std::vector<Value> values;
    for (NodeId n : cluster.pmap().replicas(p)) {
      TxProbe r;
      test::run_reads(cluster, cluster.node(n).coordinator(), {k}, r);
      cluster.run_for(sec(1));
      ASSERT_TRUE(r.done);
      ASSERT_EQ(r.reads.size(), 1u);
      ASSERT_TRUE(r.reads[0].found);
      values.push_back(r.reads[0].value);
    }
    ASSERT_GE(values.size(), 2u);
    for (const Value& v : values) {
      EXPECT_EQ(v, values.front()) << "replica divergence on partition " << p;
    }
  }
}

/// Drive commit() directly so the test observes the future commit() itself
/// returns (the client path watches outcome_future instead).
sim::Fiber run_commit_direct(Coordinator& coord, Key key, test::TxProbe& probe) {
  probe.tx = coord.begin();
  coord.write(probe.tx, key, "x");
  probe.result = co_await coord.commit(probe.tx);
  probe.done = true;
}

TEST(Recovery, BeginOnDownNodeAttributesAbortToNodeCrash) {
  // A TxId handed out by begin() on a crashed node is never registered; both
  // the outcome future and commit() must report NodeCrash, not a bogus
  // CascadingAbort, so chaos-run abort breakdowns attribute these correctly.
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));
  cluster.crash_node(0);

  TxProbe via_outcome;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, "x",
                  via_outcome);
  TxProbe via_commit;
  run_commit_direct(cluster.node(0).coordinator(), key_at(0, 1), via_commit);
  cluster.run_for(sec(1));

  ASSERT_TRUE(via_outcome.done);
  EXPECT_EQ(via_outcome.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(via_outcome.result.abort_reason, AbortReason::NodeCrash);
  ASSERT_TRUE(via_commit.done);
  EXPECT_EQ(via_commit.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(via_commit.result.abort_reason, AbortReason::NodeCrash);
}

TEST(Recovery, CrashedNodeRejectsNewTransactions) {
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));
  cluster.crash_node(0);

  TxProbe probe;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  probe);
  cluster.run_for(sec(1));
  ASSERT_TRUE(probe.done);
  EXPECT_EQ(probe.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(cluster.node(0).coordinator().live_transactions(), 0u);

  // After a restart the node serves again.
  cluster.restart_node(0);
  TxProbe again;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  again);
  cluster.run_for(sec(1));
  ASSERT_TRUE(again.done);
  EXPECT_EQ(again.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(again.reads[0].value, "v");
}

// ---------------------------------------------------------------------------
// Chaos acceptance: the ISSUE's canned plan, end to end through the harness.

harness::ExperimentConfig chaos_config(std::uint64_t seed,
                                       const std::string& metrics_out) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.cluster.jitter_frac = 0.05;
  cfg.cluster.faults.link.drop_prob = 0.05;
  cfg.cluster.faults.link.dup_prob = 0.02;
  cfg.cluster.faults.add_partition(0, 1, sec(3), sec(13));  // one 10s window
  cfg.cluster.faults.add_crash(2, sec(4), sec(6));  // a coordinator crash
  cfg.total_clients = 12;
  cfg.warmup = sec(1);
  cfg.duration = sec(8);
  cfg.drain = sec(3);  // extended automatically under faults
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

TEST(Chaos, AcceptancePlanIsSafeLiveAndDeterministic) {
  const std::string out1 = testing::TempDir() + "chaos_metrics_1.json";
  const std::string out2 = testing::TempDir() + "chaos_metrics_2.json";

  const harness::ExperimentResult r1 =
      run_experiment(chaos_config(1234, out1), synth_factory());
  // Liveness: progress despite 5% drop + 2% dup + partition + crash.
  EXPECT_GT(r1.commits, 0u);
  // The faults actually happened and the recovery machinery actually ran
  // (run_experiment auto-enables recovery when a fault plan is present).
  EXPECT_GT(r1.net_dropped, 0u);
  EXPECT_GT(r1.net_duplicated, 0u);
  EXPECT_GT(r1.rpc_retries, 0u);
  // Safety: the SPSI checker is clean over the whole faulty history.
  EXPECT_TRUE(r1.violations.empty()) << r1.violations.front();
  // No leaks: no live transaction, parked reader, pre-commit lock, or
  // undecided orphan survives the drain.
  EXPECT_TRUE(r1.quiesce.clean())
      << "live=" << r1.quiesce.live_txns
      << " parked=" << r1.quiesce.parked_reads
      << " locks=" << r1.quiesce.uncommitted_txns
      << " orphans=" << r1.quiesce.orphans;

  // Deterministic replay: same seed + same plan => byte-identical exports.
  const harness::ExperimentResult r2 =
      run_experiment(chaos_config(1234, out2), synth_factory());
  ASSERT_TRUE(r1.exports_ok && r2.exports_ok);
  const std::string m1 = slurp(out1);
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, slurp(out2));
  EXPECT_EQ(r1.commits, r2.commits);
  EXPECT_EQ(r1.net_dropped, r2.net_dropped);

  // A different seed takes a different trajectory (the plan is stochastic,
  // not scripted).
  const std::string out3 = testing::TempDir() + "chaos_metrics_3.json";
  const harness::ExperimentResult r3 =
      run_experiment(chaos_config(4321, out3), synth_factory());
  EXPECT_TRUE(r3.violations.empty());
  EXPECT_TRUE(r3.quiesce.clean())
      << "live=" << r3.quiesce.live_txns
      << " parked=" << r3.quiesce.parked_reads
      << " locks=" << r3.quiesce.uncommitted_txns
      << " orphans=" << r3.quiesce.orphans;
  EXPECT_NE(m1, slurp(out3));
}

TEST(Chaos, EverySeedTerminatesCleanUnderCrashPlans) {
  // A small seed sweep over a harsher plan (coordinator crash without
  // restart): every run must terminate with a clean quiesce and no
  // violations — the unilateral-abort path keeps participants live.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    harness::ExperimentConfig cfg = chaos_config(seed, "");
    cfg.cluster.faults.crashes.clear();
    cfg.cluster.faults.add_crash(1, sec(4));  // never restarts
    cfg.duration = sec(6);
    const harness::ExperimentResult r = run_experiment(cfg, synth_factory());
    EXPECT_GT(r.commits, 0u) << "seed " << seed;
    EXPECT_TRUE(r.violations.empty()) << "seed " << seed;
    EXPECT_TRUE(r.quiesce.clean())
        << "seed " << seed << ": live=" << r.quiesce.live_txns
        << " parked=" << r.quiesce.parked_reads
        << " locks=" << r.quiesce.uncommitted_txns
        << " orphans=" << r.quiesce.orphans;
  }
}

}  // namespace
}  // namespace str::protocol
