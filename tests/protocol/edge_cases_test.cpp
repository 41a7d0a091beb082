// Edge cases of the protocol engine: clock skew and the read-delay rule,
// user aborts, read-your-own-writes, unsafe transactions and the cache
// partition, garbage collection under traffic, Ext-Spec accounting, and
// liveness (every transaction eventually resolves, no parked readers or
// records leak).
#include <gtest/gtest.h>

#include <memory>

#include "protocol/cluster.hpp"
#include "sim/coro.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"
#include "workload/client.hpp"

namespace str::protocol {
namespace {

using test::key_at;
using test::small_config;
using test::TxProbe;

TEST(EdgeCases, ReadYourOwnWrites) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str()));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();

  struct Probe {
    Value first;
    Value second;
    bool done = false;
  };
  static auto body = [](Cluster& cl, Coordinator& c, Key k,
                        Probe& p) -> sim::Fiber {
    (void)cl;
    const TxId tx = c.begin();
    auto outcome = c.outcome_future(tx);
    auto r1 = co_await c.read(tx, k);
    p.first = r1.value;
    c.write(tx, k, "mine");
    auto r2 = co_await c.read(tx, k);  // must see the buffered write
    p.second = r2.value;
    c.commit(tx);
    co_await outcome;
    p.done = true;
  };
  Probe p;
  body(cluster, coord, key_at(0, 1), p);
  cluster.run_for(sec(1));
  ASSERT_TRUE(p.done);
  EXPECT_EQ(p.first, "old");
  EXPECT_EQ(p.second, "mine");
}

TEST(EdgeCases, UserAbortRollsBackCleanly) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str()));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();

  const TxId tx = coord.begin();
  auto outcome = coord.outcome_future(tx);
  coord.write(tx, key_at(0, 1), "new");
  coord.user_abort(tx);
  cluster.run_for(msec(1));
  ASSERT_TRUE(outcome.ready());
  EXPECT_EQ(outcome.get().outcome, TxOutcome::Aborted);
  EXPECT_EQ(outcome.get().abort_reason, AbortReason::UserAbort);

  TxProbe r;
  test::run_reads(cluster, coord, {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  EXPECT_EQ(r.reads[0].value, "old");
  EXPECT_EQ(cluster.metrics().aborts_of(AbortReason::UserAbort), 1u);
}

TEST(EdgeCases, ReadMissingKeyReturnsNotFound) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str()));
  cluster.run_for(msec(10));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 999)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.result.outcome, TxOutcome::Committed);
  EXPECT_FALSE(r.reads[0].found);
}

TEST(EdgeCases, BlindInsertCreatesKey) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str()));
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();
  TxProbe w;
  test::run_write(cluster, coord, {key_at(0, 777)}, "created", w);
  cluster.run_for(sec(1));
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  TxProbe r;
  test::run_reads(cluster, coord, {key_at(0, 777)}, r);
  cluster.run_for(sec(1));
  EXPECT_TRUE(r.reads[0].found);
  EXPECT_EQ(r.reads[0].value, "created");
}

TEST(EdgeCases, UnsafeTransactionUsesCachePartition) {
  // rf=1: keys of partition 1 are not replicated at node 0, so node 0's
  // writer is "unsafe" and parks its remote write in the cache; a second
  // local transaction reads it speculatively from there.
  Cluster cluster(small_config(3, 1, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(1, 5), "v0");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();

  TxProbe w;
  test::run_write(cluster, coord, {key_at(1, 5)}, "v1", w);
  cluster.run_for(msec(1));  // local-committed; global certification running
  EXPECT_TRUE(cluster.node(0).cache().holds(key_at(1, 5),
                                            cluster.node(0).physical_now()));

  TxProbe r;
  test::run_reads(cluster, coord, {key_at(1, 5)}, r);
  cluster.run_for(msec(5));
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_TRUE(r.reads[0].speculative);
  EXPECT_EQ(r.reads[0].value, "v1");

  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done && r.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(r.result.outcome, TxOutcome::Committed);
  // Cache entry dropped at final commit (Alg. 1 line 44).
  EXPECT_FALSE(cluster.node(0).cache().holds(key_at(1, 5),
                                             cluster.node(0).physical_now()));
}

TEST(EdgeCases, ClockSkewReadDelayRule) {
  // Node 0's clock runs ahead; its snapshot can be in node 1's future. The
  // read-delay rule must hold the remote read until node 1's clock catches
  // up rather than serving a snapshot the server cannot yet close.
  auto cfg = small_config(2, 1, ProtocolConfig::str(), msec(20));
  Cluster cluster(cfg);
  cluster.load(key_at(1, 1), "v");
  cluster.run_for(msec(10));
  // Directly exercise the actor: a request from 5ms in node 1's future.
  auto* actor = cluster.node(1).replica(1);
  ASSERT_NE(actor, nullptr);
  ReadRequest req;
  req.reader = TxId{0, 12345};
  req.reader_node = 0;
  req.req_id = 1;
  req.key = key_at(1, 1);
  req.rs = cluster.node(1).physical_now() + msec(5);
  const Timestamp before = cluster.now();
  actor->handle_remote_read(req);
  // The reply is only produced once node 1's physical clock reaches rs.
  cluster.run_for(msec(3));
  EXPECT_EQ(cluster.network().stats().messages_sent, 0u);
  cluster.run_for(msec(60));
  EXPECT_GE(cluster.now() - before, msec(5));
  EXPECT_GT(cluster.network().stats().messages_sent, 0u);
}

TEST(EdgeCases, GcPrunesVersionsDuringTraffic) {
  auto cfg = small_config(3, 2, ProtocolConfig::str(), msec(20));
  cfg.protocol.gc_interval = msec(500);
  cfg.protocol.gc_horizon = sec(1);
  Cluster cluster(cfg);
  workload::SyntheticConfig wcfg;
  wcfg.keys_per_txn = 2;
  wcfg.keys_per_half = 4;  // tiny: constant overwriting of the same keys
  wcfg.local_hotspot = 2;
  wcfg.remote_hotspot = 2;
  wcfg.remote_access_prob = 0.2;
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  workload::ClientPool pool(cluster, wl, 2);
  pool.start_all();
  cluster.run_for(sec(10));
  pool.request_stop_all();
  cluster.run_for(sec(2));

  // Version chains stay bounded by the GC horizon.
  std::uint64_t max_chain = 0;
  std::uint64_t removed = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (PartitionId p = 0; p < cluster.pmap().num_partitions(); ++p) {
      auto* actor = cluster.node(n).replica(p);
      if (actor == nullptr) continue;
      const auto st = actor->store().stats();
      if (st.keys > 0) {
        max_chain = std::max(max_chain, st.versions / st.keys);
      }
      removed += st.gc_removed;
    }
  }
  EXPECT_GT(removed, 0u);           // GC actually ran
  EXPECT_LT(max_chain, 500u);       // chains bounded, not run-length
  EXPECT_GT(cluster.metrics().commits(), 0u);
}

TEST(EdgeCases, ExtSpecReadOnlyCountsAsExternalized) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::ext_spec()));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_GT(r.result.externalized_at, 0u);
  EXPECT_EQ(cluster.metrics().externalized(), 1u);
  EXPECT_EQ(cluster.metrics().external_misspeculations(), 0u);
}

TEST(EdgeCases, ExtSpecMisspeculationCounted) {
  // A transaction that externalizes after local certification and then
  // loses global certification is an external misspeculation.
  Cluster cluster(small_config(3, 1, ProtocolConfig::ext_spec(), msec(100)));
  cluster.load(key_at(1, 5), "v0");
  cluster.run_for(msec(10));

  TxProbe loser;
  test::run_write(cluster, cluster.node(0).coordinator(),
                  {key_at(1, 5), key_at(0, 6)}, "loser", loser);
  cluster.run_for(msec(1));
  TxProbe winner;
  test::run_write(cluster, cluster.node(1).coordinator(), {key_at(1, 5)},
                  "winner", winner);
  cluster.run_for(sec(2));
  ASSERT_TRUE(loser.done);
  ASSERT_EQ(loser.result.outcome, TxOutcome::Aborted);
  EXPECT_GT(loser.result.externalized_at, 0u);  // had been surfaced
  EXPECT_EQ(cluster.metrics().external_misspeculations(), 1u);
  EXPECT_GT(cluster.metrics().external_misspeculation_rate(), 0.0);
}

TEST(EdgeCases, NoLeaksUnderChurn) {
  // After a heavily contended run drains, every coordinator's transaction
  // table is empty and no reader stays parked anywhere.
  auto cfg = small_config(3, 2, ProtocolConfig::str(), msec(60));
  Cluster cluster(cfg);
  workload::SyntheticConfig wcfg;
  wcfg.keys_per_txn = 4;
  wcfg.keys_per_half = 10;
  wcfg.local_hotspot = 2;
  wcfg.remote_hotspot = 2;
  wcfg.remote_access_prob = 0.5;
  wcfg.far_access_frac = 0.4;
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  workload::ClientPool pool(cluster, wl, 5);
  pool.start_all();
  cluster.run_for(sec(10));
  pool.request_stop_all();
  cluster.run_for(sec(3));
  EXPECT_TRUE(pool.all_stopped());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.node(n).coordinator().live_transactions(), 0u)
        << "node " << n;
    for (PartitionId p = 0; p < cluster.pmap().num_partitions(); ++p) {
      auto* actor = cluster.node(n).replica(p);
      if (actor != nullptr) {
        EXPECT_EQ(actor->parked_readers(), 0u) << "node " << n << " part " << p;
      }
    }
  }
}

TEST(EdgeCases, PerNodeSpeculationToggle) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.load(key_at(1, 1), "old");
  cluster.run_for(msec(10));
  cluster.set_node_speculation_enabled(0, false);

  // Node 0: speculation off — reader blocks behind the writer.
  auto& coord0 = cluster.node(0).coordinator();
  TxProbe w0;
  test::run_write(cluster, coord0, {key_at(0, 1)}, "new", w0);
  cluster.run_for(msec(1));
  TxProbe r0;
  test::run_reads(cluster, coord0, {key_at(0, 1)}, r0);
  cluster.run_for(msec(20));
  EXPECT_TRUE(r0.reads.empty());

  // Node 1: speculation on — reader observes immediately.
  auto& coord1 = cluster.node(1).coordinator();
  TxProbe w1;
  test::run_write(cluster, coord1, {key_at(1, 1)}, "new", w1);
  cluster.run_for(msec(1));
  TxProbe r1;
  test::run_reads(cluster, coord1, {key_at(1, 1)}, r1);
  cluster.run_for(msec(5));
  ASSERT_EQ(r1.reads.size(), 1u);
  EXPECT_TRUE(r1.reads[0].speculative);
  cluster.run_for(sec(2));
}

TEST(EdgeCases, CommitTimestampsAreOrderedPerKey) {
  // A long chain of RMWs on one key: commit timestamps must strictly
  // increase in commit order.
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(40)));
  cluster.load(key_at(0, 1), "v0");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();
  std::vector<std::unique_ptr<TxProbe>> probes;
  for (int i = 0; i < 20; ++i) {
    probes.push_back(std::make_unique<TxProbe>());
    test::run_rmw(cluster, coord, {key_at(0, 1)}, test::numbered("v", i + 1),
                  *probes.back());
    cluster.run_for(msec(7));
  }
  cluster.run_for(sec(2));
  Timestamp prev = 0;
  int committed = 0;
  for (const auto& p : probes) {
    ASSERT_TRUE(p->done);
    if (p->result.outcome == TxOutcome::Committed) {
      EXPECT_GT(p->result.commit_ts, prev);
      prev = p->result.commit_ts;
      ++committed;
    }
  }
  EXPECT_GT(committed, 10);
}


TEST(EdgeCases, ApiOnUnknownTransactionIsSafe) {
  // The documented contract: operations on an unknown/finished transaction
  // id never crash — reads resolve aborted, writes no-op, commit reports
  // the abort. Client drivers rely on this after cascading aborts erase
  // records out from under a still-running body.
  Cluster cluster(test::small_config(3, 2, ProtocolConfig::str()));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();

  const TxId ghost{0, 424242};
  EXPECT_TRUE(coord.is_aborted(ghost));
  EXPECT_EQ(coord.snapshot_of(ghost), 0u);

  auto read_f = coord.read(ghost, key_at(0, 1));
  ASSERT_TRUE(read_f.ready());
  EXPECT_TRUE(read_f.get().aborted);

  coord.write(ghost, key_at(0, 1), "nope");  // silently ignored
  auto commit_f = coord.commit(ghost);
  ASSERT_TRUE(commit_f.ready());
  EXPECT_EQ(commit_f.get().outcome, TxOutcome::Aborted);

  coord.user_abort(ghost);  // idempotent no-op
  cluster.run_for(msec(10));
  // The ignored write never reached the store.
  TxProbe r;
  test::run_reads(cluster, coord, {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  EXPECT_EQ(r.reads[0].value, "v");
}

TEST(EdgeCases, OutcomeFutureAfterBeginAlwaysResolves) {
  Cluster cluster(test::small_config(3, 2, ProtocolConfig::str(), msec(50)));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();
  // Register several outcome watchers on one transaction: all are fulfilled.
  const TxId tx = coord.begin();
  auto f1 = coord.outcome_future(tx);
  auto f2 = coord.outcome_future(tx);
  coord.write(tx, key_at(0, 1), "w");
  coord.commit(tx);
  cluster.run_for(sec(1));
  ASSERT_TRUE(f1.ready());
  ASSERT_TRUE(f2.ready());
  EXPECT_EQ(f1.get().outcome, TxOutcome::Committed);
  EXPECT_EQ(f2.get().commit_ts, f1.get().commit_ts);
}

}  // namespace
}  // namespace protocol
