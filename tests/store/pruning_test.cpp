// Version pruning: the store-level GC contract and the cluster-wide
// stable-snapshot watermark that drives it.
//
// The store half pins down exactly what gc(horizon) may and may not remove:
// the newest committed version at or below the horizon survives (so any
// snapshot at or above the horizon still reads correctly), while
// speculative (pre-/local-committed) versions are never touched no matter
// how old — they are still subject to in-flight certification. The cluster
// half checks that the watermark, the one horizon maintenance prunes at,
// never passes the snapshot of any live transaction or any parked/in-flight
// reader and is monotonic — also under a coordinator kill that keeps
// snapshots live for longer than 4 s — and that pruning at it is
// behaviour-neutral against a run whose maintenance never ticks.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "harness/experiment.hpp"
#include "protocol/cluster.hpp"
#include "store/mvstore.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

namespace str::store {
namespace {

const TxId kTx1{0, 1};
const TxId kTx2{0, 2};
const TxId kTx3{1, 1};

std::vector<std::pair<Key, SharedValue>> upd(Key k, Value v) {
  return {{k, std::make_shared<Value>(std::move(v))}};
}

/// load() + three committed writes: chain ts {0, 100, 200, 300}.
PartitionStore committed_chain() {
  PartitionStore s;
  s.load(1, "a");
  const TxId txs[] = {kTx1, kTx2, kTx3};
  const Timestamp ts[] = {100, 200, 300};
  const Value vals[] = {"b", "c", "d"};
  for (int i = 0; i < 3; ++i) {
    auto pr = s.prepare(txs[i], ts[i] - 50, upd(1, vals[i]),
                        /*precise=*/false, ts[i]);
    EXPECT_TRUE(pr.ok);
    s.final_commit(txs[i], ts[i]);
  }
  return s;
}

TEST(Pruning, GcKeepsNewestCommittedAtOrBelowHorizon) {
  PartitionStore s = committed_chain();
  ASSERT_EQ(s.stats().versions, 4u);

  s.gc(250);  // newest committed <= 250 is ts 200; ts 0 and 100 go
  EXPECT_EQ(s.stats().versions, 2u);
  EXPECT_EQ(s.stats().gc_removed, 2u);
  EXPECT_EQ(s.peek(1, 250).ts, 200u);

  // Any snapshot at or above the horizon reads exactly what it would have
  // read before pruning.
  EXPECT_EQ(s.peek(1, 250).value_str(), "c");
  EXPECT_EQ(s.peek(1, 299).value_str(), "c");
  EXPECT_EQ(s.peek(1, 300).value_str(), "d");
}

TEST(Pruning, ReadsBelowHorizonAreForfeit) {
  // The flip side of the contract — and the reason the watermark must never
  // pass a live reader: snapshots below the horizon lose their versions.
  PartitionStore s = committed_chain();
  ASSERT_EQ(s.peek(1, 150).value_str(), "b");
  s.gc(250);
  EXPECT_EQ(s.peek(1, 150).kind, ReadKind::NotFound);
}

TEST(Pruning, GcIsIdempotentAndKeepsSoleVersion) {
  PartitionStore s = committed_chain();
  s.gc(1000);  // only the newest committed version (ts 300) remains
  EXPECT_EQ(s.stats().versions, 1u);
  s.gc(1000);
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.peek(1, 5000).value_str(), "d");
}

TEST(Pruning, UncommittedVersionsSurviveAnyHorizon) {
  PartitionStore s;
  s.load(1, "a");
  auto pr1 = s.prepare(kTx1, 50, upd(1, "b"), /*precise=*/false, 100);
  ASSERT_TRUE(pr1.ok);
  s.final_commit(kTx1, 100);

  // tx2 pre-commits at ts 200 and stays undecided; tx3 then replicates and
  // final-commits *above* it at ts 300, so gc sees a committed version
  // newer than the pre-commit.
  auto pr2 = s.prepare(kTx2, 150, upd(1, "c"), /*precise=*/false, 200);
  ASSERT_TRUE(pr2.ok);
  auto rr = s.replicate_insert(kTx3, upd(1, "d"), /*precise=*/false, 300);
  EXPECT_TRUE(rr.evicted.empty());  // pre-commits are never evicted
  s.replicate_finish(kTx3, upd(1, "d"), rr.proposed_ts);
  s.final_commit(kTx3, rr.proposed_ts);

  // Horizon far past everything: committed ts 0 and 100 are dominated and
  // go; the undecided pre-commit at ts 200 must survive.
  s.gc(100000);
  EXPECT_TRUE(s.has_uncommitted(kTx2));
  EXPECT_EQ(s.uncommitted_ts(kTx2), 200u);
  EXPECT_EQ(s.stats().versions, 2u);

  // It is still certifiable/decidable: committing it works as if no GC ran.
  s.final_commit(kTx2, 350);
  EXPECT_EQ(s.peek(1, 400).value_str(), "c");
}

TEST(Pruning, SpeculativeVersionsSurviveAnyHorizon) {
  PartitionStore s;
  s.load(1, "a");
  auto pr1 = s.prepare(kTx1, 50, upd(1, "b"), /*precise=*/false, 100);
  ASSERT_TRUE(pr1.ok);
  s.final_commit(kTx1, 100);

  auto pr2 = s.prepare(kTx2, 150, upd(1, "c"), /*precise=*/false, 200);
  ASSERT_TRUE(pr2.ok);
  s.local_commit(kTx2, 200);  // speculative: LocalCommitted, not final

  s.gc(100000);
  EXPECT_TRUE(s.has_uncommitted(kTx2));
  // A speculative reader above it still sees the local-committed value.
  auto r = s.peek(1, 250);
  EXPECT_EQ(r.kind, ReadKind::Speculative);
  EXPECT_EQ(r.value_str(), "c");
}

// -- cluster-wide watermark --------------------------------------------------

protocol::Cluster::Config small_cluster_config(Timestamp gc_interval) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.protocol.gc_interval = gc_interval;
  cfg.seed = 11;
  return cfg;
}

/// The str_sim quorum-kill command (synth-a, 200 clients, warmup 1 s,
/// duration 5 s, drain 30 s, WAL with torn writes at 0.5, decision quorum 2,
/// node 2 killed for good at 3.4 s, --verify) at `seed`.
harness::ExperimentConfig quorum_kill_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.cluster.num_nodes = 9;
  cfg.cluster.topology = net::Topology::ec2_nine_regions();
  cfg.cluster.protocol = protocol::ProtocolConfig::str();
  cfg.cluster.seed = seed;
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.protocol.durability.decision_quorum = 2;
  cfg.cluster.faults.storage.torn_write_prob = 0.5;
  cfg.cluster.faults.add_crash(/*node=*/2, /*at=*/usec(3'400'000));
  cfg.total_clients = 200;
  cfg.warmup = sec(1);
  cfg.duration = sec(5);
  cfg.drain = sec(30);
  cfg.verify = true;
  return cfg;
}

/// Samples of the watermark's safety invariant, one every 100 ms.
struct WatermarkProbe {
  std::size_t probes = 0;
  std::size_t violations = 0;
  /// Node samples whose oldest live snapshot is more than 4 s old.
  std::size_t stale_snapshots = 0;
  Timestamp last_wm = 0;
};

/// Sample `p` every 100 ms with every shard parked at the sample time, for
/// as long as the cluster runs.
void probe_every_100ms(protocol::Cluster& cluster, WatermarkProbe& p) {
  cluster.sharded().schedule_global(
      cluster.now() + msec(100), [&cluster, &p]() {
        ++p.probes;
        const Timestamp now = cluster.now();
        const Timestamp wm = cluster.stable_watermark();
        if (wm < p.last_wm) ++p.violations;  // monotonicity
        p.last_wm = wm;
        for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
          auto& n = cluster.node(id);
          const Timestamp rs = n.coordinator().min_active_rs();
          if (rs < wm) ++p.violations;
          if (rs < now && now - rs > sec(4)) ++p.stale_snapshots;
          for (auto& [pid, actor] : n.replicas()) {
            if (actor->min_reader_rs() < wm) ++p.violations;
          }
        }
        probe_every_100ms(cluster, p);
      });
}

TEST(Pruning, WatermarkNeverPassesLiveReadersAndIsMonotonic) {
  protocol::Cluster cluster(small_cluster_config(msec(250)));
  workload::SyntheticWorkload wl(cluster, workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, 30);
  pool.start_all();

  // Probe the invariant between maintenance ticks for the whole run.
  WatermarkProbe p;
  probe_every_100ms(cluster, p);
  cluster.run_for(sec(3));
  pool.request_stop_all();
  cluster.run_for(sec(1));

  EXPECT_EQ(p.violations, 0u);
  EXPECT_GT(p.probes, 20u);
  // The watermark actually advanced (it is not vacuously zero).
  EXPECT_GT(cluster.stable_watermark(), 0u);

  // The same probe where the watermark lags furthest: a coordinator killed
  // for good mid-run leaves transactions live on snapshots more than 4 s
  // old, and maintenance must prune below none of them.
  const harness::ExperimentConfig kill = quorum_kill_config(5);
  protocol::Cluster::Config kill_cluster = kill.cluster;
  kill_cluster.protocol.recovery.enabled = true;  // as run_experiment does
  protocol::Cluster killed(kill_cluster);
  workload::SyntheticWorkload kill_wl(killed,
                                      workload::SyntheticConfig::synth_a());
  kill_wl.load(killed);
  auto kill_pool =
      workload::ClientPool::with_total(killed, kill_wl, kill.total_clients);
  kill_pool.start_all();
  WatermarkProbe q;
  probe_every_100ms(killed, q);
  killed.run_for(kill.warmup + kill.duration);
  kill_pool.request_stop_all();
  killed.run_for(kill.drain);

  EXPECT_EQ(q.violations, 0u);
  EXPECT_EQ(q.probes, 360u);
  EXPECT_GT(q.stale_snapshots, 0u);
  EXPECT_EQ(killed.quiesce_report().permanently_down, 1u);
}

TEST(Pruning, WatermarkPruningIsNeutralAgainstNoPruning) {
  // Same seed, same workload; the only difference is whether maintenance
  // ticks inside the 4 s run. Behaviour counters must match exactly; GC
  // accounting must not.
  std::uint64_t removed[2], commits[2], reads[2];
  for (int on = 0; on < 2; ++on) {
    protocol::Cluster cluster(
        small_cluster_config(on == 1 ? msec(250) : sec(60)));
    workload::SyntheticWorkload wl(cluster,
                                   workload::SyntheticConfig::synth_a());
    wl.load(cluster);
    auto pool = workload::ClientPool::with_total(cluster, wl, 30);
    pool.start_all();
    cluster.run_for(sec(3));
    pool.request_stop_all();
    cluster.run_for(sec(1));
    obs::Registry merged = cluster.merged_obs();
    removed[on] = merged.counter("store.gc_removed").value();
    commits[on] = merged.counter("txn.commits").value();
    reads[on] = merged.counter("store.read.committed").value();
  }
  EXPECT_EQ(commits[0], commits[1]);
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_EQ(removed[0], 0u);
  EXPECT_GT(removed[1], 0u);
}

// -- regressions: a snapshot older than 4 s ---------------------------------

sim::Fiber read_into(protocol::Coordinator& coord, TxId tx, Key key,
                     txn::ReadResult& out, bool& done) {
  out = co_await coord.read(tx, key);
  done = true;
}

TEST(Pruning, LiveSnapshotOlderThanFourSecondsStillReadsItsVersion) {
  // A transaction begins at 0 and reads only at 5 s. Two blind writes of
  // its key commit meanwhile, so every version but the loaded one lies
  // above its snapshot. No age-based floor may prune the loaded version
  // while the transaction lives.
  auto cfg = test::small_config(2, 2, protocol::ProtocolConfig::str(),
                                msec(20));
  cfg.protocol.gc_interval = msec(100);
  protocol::Cluster cluster(cfg);
  const Key key = test::key_at(0, 1);
  cluster.load(key, "loaded");
  protocol::Coordinator& coord = cluster.node(0).coordinator();
  const TxId reader = coord.begin();

  test::TxProbe w1, w2;
  test::run_write(cluster, coord, {key}, "w1", w1);
  cluster.run_for(msec(200));
  test::run_write(cluster, coord, {key}, "w2", w2);
  cluster.run_for(msec(300));
  ASSERT_TRUE(w1.done && w2.done);
  ASSERT_EQ(w1.result.outcome, TxOutcome::Committed);
  ASSERT_EQ(w2.result.outcome, TxOutcome::Committed);
  EXPECT_LT(w1.finished_at, msec(100));
  EXPECT_LT(w2.finished_at, msec(300));

  cluster.run_for(sec(5) - cluster.now());
  txn::ReadResult r;
  bool done = false;
  read_into(coord, reader, key, r, done);
  cluster.run_for(msec(50));
  ASSERT_TRUE(done);
  EXPECT_FALSE(r.aborted);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "loaded");
}

TEST(Pruning, QuorumKillCommandKeepsSpsi) {
  // Seeds at which an age-based floor pruned a version a live reader still
  // needed: the read came back NotFound and the checker flagged it.
  auto factory = [](protocol::Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(
        c, workload::SyntheticConfig::synth_a());
  };
  for (std::uint64_t seed : {5u, 55u}) {
    const harness::ExperimentResult r =
        harness::run_experiment(quorum_kill_config(seed), factory);
    EXPECT_GT(r.commits, 0u) << "seed " << seed;
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << ": " << r.violations.front();
  }
}

}  // namespace
}  // namespace str::store
