// Quorum commit point under coordinator loss (docs/DURABILITY.md §8).
//
// The tentpole invariant, swept across every millisecond of the commit
// window: if the client saw Commit, the outcome survives — even when the
// coordinator dies PERMANENTLY right after the ack. With the decision
// replicated to a quorum before the ack, the surviving replica-group
// members answer the participants' census and the transaction resolves;
// recovery.lost_commits must stay zero at every crash offset. The sweep
// also layers a second replica-member crash and torn-write faults on the
// replica decision appends, and pins the motivating failure: quorum=1
// (the single-copy commit point) CAN lose client-acked commits under a
// permanent kill, quorum=2 cannot.
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

Cluster::Config quorum_config(std::uint32_t quorum, std::uint64_t seed = 1) {
  Cluster::Config cfg =
      small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = quorum;
  return cfg;
}

/// One scripted write at t=100ms across two partitions (one mastered at the
/// crashing coordinator, one remote — the remote participant is what runs
/// the census). Returns after the cluster has fully settled.
struct SweepRun {
  TxProbe w;
  std::string remote_value;       ///< key_at(1,1) read via node 1
  std::string remote_value_n2;    ///< key_at(1,1) read via node 2
  bool reads_done = false;
  std::uint64_t lost_commits = 0;
  Cluster::QuiesceReport quiesce;
};

SweepRun sweep_once(Cluster::Config cfg) {
  Cluster cluster(cfg);
  SweepRun out;
  cluster.load(key_at(0, 1), "old");
  cluster.load(key_at(1, 1), "old");
  cluster.run_for(msec(100));
  test::run_write(cluster, cluster.node(0).coordinator(),
                  {key_at(0, 1), key_at(1, 1)}, "new", out.w);
  // Census resolution paces on the orphan timer (1s initial, 2s cap) and
  // needs up to kOrphanDownProbes complete rounds; 20s settles everything.
  cluster.run_for(sec(20));
  out.lost_commits = counter_value(cluster, "recovery.lost_commits");
  out.quiesce = cluster.quiesce_report();
  // Key 1 is mastered at the surviving node 1: readable regardless of the
  // coordinator's fate. Read it through two different nodes — atomicity
  // means they agree, and an acked commit means they both say "new".
  TxProbe r1, r2;
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(1, 1)}, r1);
  test::run_reads(cluster, cluster.node(2).coordinator(), {key_at(1, 1)}, r2);
  cluster.run_for(sec(2));
  out.reads_done = r1.done && r2.done && r1.reads.size() == 1 &&
                   r2.reads.size() == 1 && r1.reads[0].found &&
                   r2.reads[0].found;
  if (out.reads_done) {
    out.remote_value = r1.reads[0].value;
    out.remote_value_n2 = r2.reads[0].value;
  }
  return out;
}

void check_sweep_invariants(const SweepRun& run, std::uint32_t quorum,
                            Timestamp offset) {
  const std::string at = "quorum=" + std::to_string(quorum) + " offset=" +
                         std::to_string(offset) + "us";
  ASSERT_TRUE(run.w.done) << at;
  // THE invariant: a client that saw Commit never loses it.
  EXPECT_EQ(run.lost_commits, 0u) << at;
  ASSERT_TRUE(run.reads_done) << at;
  EXPECT_EQ(run.remote_value, run.remote_value_n2) << at;
  if (run.w.result.outcome == TxOutcome::Committed) {
    EXPECT_EQ(run.remote_value, "new") << at;
  } else {
    // Unacked: either outcome is legal (the census may resolve a durable
    // quorum decision to Commit after the client saw NodeCrash), but it
    // must be one of the two values, settled identically everywhere.
    EXPECT_TRUE(run.remote_value == "old" || run.remote_value == "new") << at;
  }
  // No 2PC state parked forever: every orphan and in-doubt registration
  // resolved; only the dead node itself remains.
  EXPECT_EQ(run.quiesce.live_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.parked_reads, 0u) << at;
  EXPECT_EQ(run.quiesce.uncommitted_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.orphans, 0u) << at;
  EXPECT_EQ(run.quiesce.in_doubt, 0u) << at;
}

TEST(QuorumCrashWindow, PermanentCoordinatorKillSweepNeverLosesAckedCommits) {
  // Crash the coordinator at every 10ms offset across the whole commit
  // window (prepare RTT ~100ms, decision fsync, quorum fan-out RTT, apply:
  // the client ack lands around 220ms; sweeping to 400ms covers well past
  // it). The crash is PERMANENT — the node never comes back, so only the
  // quorum copies can save an acked decision.
  for (const std::uint32_t quorum : {2u, 3u}) {
    for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
      Cluster::Config cfg = quorum_config(quorum);
      cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off);
      const SweepRun run = sweep_once(std::move(cfg));
      check_sweep_invariants(run, quorum, off);
    }
  }
}

TEST(QuorumCrashWindow, SecondMemberCrashAndTornWritesStillResolve) {
  // Layer a second failure on the sweep: a replica-group member (node 1)
  // crashes 20ms after the coordinator and restarts 1.5s later, with
  // torn-write faults forced on — every crash that catches a decision
  // append mid-fsync leaves a torn tail for replay to truncate. The member
  // replays its decision log on restart, so copies that reached its durable
  // prefix re-seed the census; the invariant is unchanged.
  for (Timestamp off = 0; off <= msec(400); off += msec(25)) {
    Cluster::Config cfg = quorum_config(2);
    cfg.faults.storage.torn_write_prob = 1.0;
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off);
    cfg.faults.add_crash(/*node=*/1, /*at=*/msec(120) + off,
                         /*restart_at=*/msec(1620) + off);
    const SweepRun run = sweep_once(std::move(cfg));
    check_sweep_invariants(run, 2, off);
  }
}

TEST(QuorumCrashWindow, QuorumOneCrashRestartSweepReplaysEveryOffset) {
  // quorum=1 degenerates to the single-copy commit point (the pre-quorum
  // behaviour, but routed through the in-doubt registry). With a RESTART
  // the local decision log replays and re-resolves everything; the ack
  // rule holds at every offset.
  for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
    Cluster::Config cfg = quorum_config(1);
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off,
                         /*restart_at=*/msec(2100) + off);
    const SweepRun run = sweep_once(std::move(cfg));
    check_sweep_invariants(run, 1, off);
  }
}

TEST(QuorumCrashWindow, ReplicaGroupIsAMajorityOrTheCoordinatorAlone) {
  DurabilityConfig d;
  EXPECT_EQ(d.group_size(), 1u);  // quorum 0: 2*0-1 must not wrap
  d.decision_quorum = 2;
  EXPECT_EQ(d.group_size(), 1u);  // no WAL: the quorum is off
  d.wal_enabled = true;
  EXPECT_EQ(d.group_size(), 3u);
  d.decision_quorum = 1;
  EXPECT_EQ(d.group_size(), 1u);
  d.decision_quorum = 3;
  EXPECT_EQ(d.group_size(), 5u);

  // The census asks the coordinator alone while the quorum is off; a group
  // wider than the cluster is capped at it. On a symmetric cluster every
  // other node ties, so the group keeps the order c+1, c+2, ...
  Cluster::Config cfg = small_config(3, 2, ProtocolConfig::str());
  EXPECT_EQ(Cluster(cfg).decision_group(2), std::vector<NodeId>{2});
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 3;
  EXPECT_EQ(Cluster(cfg).decision_group(2), (std::vector<NodeId>{2, 0, 1}));

  // On the EC2 matrix each group is the coordinator and the nodes nearest
  // its region: Oregon waits on California (22 ms) and Virginia (72 ms),
  // not on Ireland and Frankfurt.
  Cluster::Config ec2 = small_config(9, 6, ProtocolConfig::str());
  ec2.topology = net::Topology::ec2_nine_regions();
  ec2.protocol.durability.wal_enabled = true;
  ec2.protocol.durability.decision_quorum = 2;
  const std::vector<std::vector<NodeId>> groups = {
      {0, 1, 2}, {1, 2, 0}, {2, 1, 0}, {3, 4, 0}, {4, 3, 0},
      {5, 7, 6}, {6, 5, 7}, {7, 5, 2}, {8, 0, 1}};
  {
    Cluster cluster(ec2);
    for (NodeId c = 0; c < 9; ++c) {
      EXPECT_EQ(cluster.decision_group(c), groups[c]) << "coordinator " << c;
      // The fan-out reads the table the census reads.
      std::vector<NodeId> members(groups[c].begin() + 1, groups[c].end());
      ASSERT_NE(cluster.node(c).decision_log(), nullptr);
      EXPECT_EQ(cluster.node(c).decision_log()->members(), members)
          << "coordinator " << c;
    }
  }
  ec2.protocol.durability.decision_quorum = 3;
  EXPECT_EQ(Cluster(ec2).decision_group(2),
            (std::vector<NodeId>{2, 1, 0, 7, 3}));
}

// The commit point waits on the nearest members. On the EC2 matrix with
// exact latencies, a write of Oregon's own partition commits 191 ms after
// it begins: its member ack comes from California, 22 ms away. A group
// picked by node id, {2, 3, 4}, would wait on Ireland, 131 ms away: 109 ms
// longer.
TEST(QuorumCrashWindow, TheNearestMemberAcksTheCommitPoint) {
  Cluster::Config cfg = small_config(9, 6, ProtocolConfig::str());
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 2;
  Cluster cluster(cfg);
  cluster.load(key_at(2, 1), "old");
  cluster.run_for(msec(100));
  const Timestamp begin = cluster.now();
  TxProbe w;
  test::run_write(cluster, cluster.node(2).coordinator(), {key_at(2, 1)},
                  "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(w.finished_at - begin, msec(191));
  // Decision append → commit point: the local sync (2 ms), the 22 ms round
  // trip and the member's own sync (2 ms); 135 ms with Ireland's 131.
  const obs::Timer* t =
      cluster.node(2).obs().find_timer("phase.decision_durable");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->count(), 1u);
  EXPECT_EQ(t->hist().max(), msec(26));
}

// The test helpers begin a transaction on its coordinator's shard, so a
// probe's finish is the commit instant at that node's clock: for a write by
// each of the nine EC2 coordinators (exact latencies, WAL, quorum 2), the
// probe's begin-to-finish time is the node's one txn.final_latency sample.
TEST(QuorumCrashWindow, EveryCoordinatorsProbeFinishesAtItsFinalLatency) {
  Cluster::Config cfg = small_config(9, 6, ProtocolConfig::str());
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 2;
  Cluster cluster(cfg);
  for (NodeId c = 0; c < 9; ++c) cluster.load(key_at(c, 1), "old");
  cluster.run_for(msec(100));
  for (NodeId c = 0; c < 9; ++c) {
    const Timestamp begin = cluster.now();
    TxProbe w;
    test::run_write(cluster, cluster.node(c).coordinator(), {key_at(c, 1)},
                    "new", w);
    cluster.run_for(sec(2));
    ASSERT_TRUE(w.done) << "coordinator " << c;
    EXPECT_EQ(w.result.outcome, TxOutcome::Committed) << "coordinator " << c;
    const obs::Timer* t =
        cluster.node(c).obs().find_timer("txn.final_latency");
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->count(), 1u) << "coordinator " << c;
    EXPECT_EQ(w.finished_at - begin, t->hist().max()) << "coordinator " << c;
  }
}

TEST(QuorumCrashWindow, AMemberWithoutACopyNeverAbortsWhileAnotherIsDown) {
  // Five nodes, quorum 2: coordinator 0's group is {0, 1, 2}. Node 0 writes
  // a key of node 3's partition (replicas 3 and 4) and dies for good in the
  // middle of 2PC, together with member 1, which restarts at 10 s. Member 2
  // holds no copy, but member 1 might: no census round can conclude and
  // nothing is even asked while it is down. Once it is back, its replayed
  // log holds no copy either, and three rounds later the orphans abort.
  Cluster::Config cfg =
      small_config(5, 2, ProtocolConfig::str(), msec(100), /*seed=*/1);
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = 2;
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100));
  cfg.faults.add_crash(/*node=*/1, /*at=*/msec(100), /*restart_at=*/sec(10));
  Cluster cluster(cfg);
  cluster.load(key_at(3, 1), "old");
  cluster.run_for(msec(10));
  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(3, 1)},
                  "new", w);
  cluster.run_for(sec(10) - msec(10) - msec(1));
  EXPECT_EQ(cluster.quiesce_report().orphans, 2u);
  EXPECT_EQ(counter_value(cluster, "txn.orphan_aborts"), 0u);
  EXPECT_EQ(counter_value(cluster, "wire.msgs.decision_request"), 0u);

  // Node 3's rounds close at 10.16, 11.16 and 12.16 s (node 4's 54 ms
  // later); each asks members 1 and 2.
  cluster.run_for(msec(2160));
  EXPECT_EQ(cluster.quiesce_report().orphans, 2u);
  cluster.run_for(msec(1));
  EXPECT_EQ(cluster.quiesce_report().orphans, 1u);
  cluster.run_for(sec(5));
  EXPECT_EQ(counter_value(cluster, "wire.msgs.decision_request"), 2u * 3 * 2);
  EXPECT_EQ(counter_value(cluster, "txn.orphan_aborts"), 2u);
  EXPECT_EQ(counter_value(cluster, "recovery.lost_commits"), 0u);
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

// ---------------------------------------------------------------------------
// The motivating failure, as a differential pair: under message drops plus
// a PERMANENT coordinator kill, the single-copy commit point (quorum=1)
// loses client-acked commits — the Commit fan-out dies on the wire and the
// decision log dies with the node, so participants can only presume abort.
// quorum=2 on the same seed and fault schedule loses nothing.

harness::ExperimentConfig lossy_kill_config(std::uint32_t quorum) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(9, 6, ProtocolConfig::str(), msec(100), 7);
  cfg.cluster.topology = net::Topology::ec2_nine_regions();
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.protocol.durability.decision_quorum = quorum;
  cfg.cluster.faults.link.drop_prob = 0.15;
  cfg.cluster.faults.link.heal_at = usec(4'500'000);
  cfg.cluster.faults.add_crash(/*node=*/3, /*at=*/sec(4));  // permanent
  cfg.total_clients = 60;
  cfg.warmup = sec(2);
  cfg.duration = sec(4);
  cfg.drain = sec(8);
  cfg.verify = true;
  return cfg;
}

harness::WorkloadFactory synth_factory() {
  return [](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(
        c, workload::SyntheticConfig::synth_a());
  };
}

TEST(QuorumCrashWindow, QuorumOneLosesAckedCommitsWhereQuorumTwoDoesNot) {
  const harness::ExperimentResult q1 =
      run_experiment(lossy_kill_config(1), synth_factory());
  const harness::ExperimentResult q2 =
      run_experiment(lossy_kill_config(2), synth_factory());

  // quorum=1: the loss is real and detected. (The SPSI checker cannot see
  // it — the lost writes simply never become visible — which is exactly
  // why the acked-commit ledger exists.)
  EXPECT_GT(q1.lost_commits, 0u);

  // quorum=2: same seed, same drops, same permanent kill — nothing lost,
  // nothing left in doubt, zero violations.
  EXPECT_EQ(q2.lost_commits, 0u);
  EXPECT_GT(q2.commits, 0u);
  EXPECT_TRUE(q2.violations.empty()) << q2.violations.front();
  EXPECT_EQ(q2.quiesce.live_txns, 0u);
  EXPECT_EQ(q2.quiesce.orphans, 0u);
  EXPECT_EQ(q2.quiesce.in_doubt, 0u);
  EXPECT_EQ(q2.quiesce.down_nodes, 1u);
  EXPECT_EQ(q2.quiesce.permanently_down, 1u);
}

// ---------------------------------------------------------------------------
// Chaos acceptance with the quorum on: drops + dups + torn writes + a
// permanent coordinator kill, SPSI-verified and bit-identical across reps.

harness::ExperimentConfig quorum_chaos_config(std::uint64_t seed,
                                              const std::string& metrics_out) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.cluster.jitter_frac = 0.05;
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.protocol.durability.decision_quorum = 2;
  cfg.cluster.faults.link.drop_prob = 0.05;
  cfg.cluster.faults.link.dup_prob = 0.02;
  cfg.cluster.faults.storage.torn_write_prob = 0.5;
  cfg.cluster.faults.add_crash(2, sec(4));  // permanent
  cfg.total_clients = 12;
  cfg.warmup = sec(1);
  cfg.duration = sec(8);
  cfg.drain = sec(6);
  cfg.verify = true;
  cfg.metrics_out = metrics_out;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(QuorumCrashWindow, QuorumChaosIsSafeLiveAndDeterministic) {
  const std::string out1 = testing::TempDir() + "quorum_chaos_metrics_1.json";
  const std::string out2 = testing::TempDir() + "quorum_chaos_metrics_2.json";

  const harness::ExperimentResult r1 =
      run_experiment(quorum_chaos_config(4242, out1), synth_factory());
  EXPECT_GT(r1.commits, 0u);
  EXPECT_GT(r1.net_dropped, 0u);
  EXPECT_EQ(r1.lost_commits, 0u);
  EXPECT_TRUE(r1.violations.empty()) << r1.violations.front();
  EXPECT_EQ(r1.quiesce.live_txns, 0u);
  EXPECT_EQ(r1.quiesce.parked_reads, 0u);
  EXPECT_EQ(r1.quiesce.uncommitted_txns, 0u);
  EXPECT_EQ(r1.quiesce.orphans, 0u);
  EXPECT_EQ(r1.quiesce.in_doubt, 0u);

  const harness::ExperimentResult r2 =
      run_experiment(quorum_chaos_config(4242, out2), synth_factory());
  ASSERT_TRUE(r1.exports_ok && r2.exports_ok);
  const std::string m1 = slurp(out1);
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, slurp(out2));
  // The quorum machinery actually ran (fan-out counters in the export;
  // every run exports them, so their value is what shows it).
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(m1, doc, error)) << error;
  EXPECT_GT(doc.find("counters")->find("wire.msgs.decision_replicate")->u(),
            0u);
}

}  // namespace
}  // namespace str::protocol
