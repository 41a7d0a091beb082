// Message-reordering robustness: network jitter can deliver a
// transaction's abort before its prepare/replicate. Tombstones at the
// partition actors must make the late arrivals harmless — no stranded
// pre-commit locks, no resurrected transactions.
#include <gtest/gtest.h>

#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"

namespace str::protocol {
namespace {

using test::key_at;
using test::small_config;

TEST(Reordering, AbortBeforeReplicateLeavesNoLock) {
  Cluster cluster(small_config(2, 2, ProtocolConfig::str(), msec(50)));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  PartitionActor* slave = cluster.node(1).replica(0);
  ASSERT_NE(slave, nullptr);

  const TxId ghost{0, 9999};
  // Abort arrives first (tombstones the tx at this replica)...
  slave->apply_abort(ghost);
  // ...then the replicate shows up late: it must be ignored.
  ReplicateRequest rep;
  rep.tx = ghost;
  rep.coordinator = 0;
  rep.partition = 0;
  rep.rs = cluster.node(1).physical_now();
  rep.updates = std::make_shared<protocol::UpdateList>(
      protocol::UpdateList{{key_at(0, 1), std::make_shared<Value>("ghost-write")}});
  slave->handle_replicate(rep);

  // No pre-commit lock: a fresh read sees the committed value immediately.
  auto r = slave->store().read(key_at(0, 1),
                               cluster.node(1).physical_now());
  EXPECT_EQ(r.kind, store::ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "v");
  EXPECT_FALSE(slave->store().has_uncommitted(ghost));
}

TEST(Reordering, TombstoneExpiresAtTheFirstTickWhoseHorizonPassesIt) {
  // Ticks every 100 ms with a 250 ms horizon: the tick at 300 ms has
  // horizon 50 ms, exactly the abort's stamp, and keeps the tombstone; the
  // tick at 400 ms (horizon 150 ms) is the first to pass it.
  auto cfg = small_config(2, 2, ProtocolConfig::str(), msec(50));
  cfg.protocol.gc_interval = msec(100);
  cfg.protocol.gc_horizon = msec(250);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(50));

  PartitionActor* slave = cluster.node(1).replica(0);
  ASSERT_NE(slave, nullptr);
  const TxId ghost{0, 6666};
  ASSERT_EQ(cluster.node(1).physical_now(), msec(50));
  slave->apply_abort(ghost);  // tombstone stamped 50 ms

  ReplicateRequest rep;
  rep.tx = ghost;
  rep.coordinator = 0;
  rep.partition = 0;
  rep.rs = cluster.node(1).physical_now();
  rep.updates = std::make_shared<protocol::UpdateList>(
      protocol::UpdateList{{key_at(0, 1), std::make_shared<Value>("late")}});
  for (Timestamp tick : {msec(100), msec(200), msec(300)}) {
    cluster.run_for(tick - cluster.now());  // the tick at `tick` has run
    slave->handle_replicate(rep);
    EXPECT_FALSE(slave->store().has_uncommitted(ghost))
        << "installed after the tick at " << tick / 1000 << " ms";
  }
  cluster.run_for(msec(400) - cluster.now());
  slave->handle_replicate(rep);
  EXPECT_TRUE(slave->store().has_uncommitted(ghost));
}

TEST(Reordering, AbortBeforePrepareAtMasterRefusesPrepare) {
  Cluster cluster(small_config(2, 2, ProtocolConfig::str(), msec(50)));
  cluster.load(key_at(1, 1), "v");
  cluster.run_for(msec(10));

  PartitionActor* master = cluster.node(1).replica(1);
  ASSERT_NE(master, nullptr);

  const TxId ghost{0, 8888};
  master->apply_abort(ghost);

  PrepareRequest req;
  req.tx = ghost;
  req.coordinator = 0;
  req.partition = 1;
  req.rs = cluster.node(1).physical_now();
  req.updates = std::make_shared<protocol::UpdateList>(
      protocol::UpdateList{{key_at(1, 1), std::make_shared<Value>("ghost")}});
  master->handle_prepare(req);
  cluster.run_for(msec(200));  // let the (refusal) reply flow

  EXPECT_FALSE(master->store().has_uncommitted(ghost));
  auto r = master->store().read(key_at(1, 1),
                                cluster.node(1).physical_now());
  EXPECT_EQ(r.kind, store::ReadKind::Committed);
}

TEST(Reordering, DuplicateCommitAndAbortAreIdempotent) {
  Cluster cluster(small_config(2, 2, ProtocolConfig::str(), msec(50)));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  PartitionActor* slave = cluster.node(1).replica(0);
  ASSERT_NE(slave, nullptr);
  const TxId tx{0, 7777};
  ReplicateRequest rep;
  rep.tx = tx;
  rep.coordinator = 0;
  rep.partition = 0;
  rep.rs = cluster.node(1).physical_now();
  rep.updates = std::make_shared<protocol::UpdateList>(
      protocol::UpdateList{{key_at(0, 1), std::make_shared<Value>("w")}});
  slave->handle_replicate(rep);
  const Timestamp ct = cluster.node(1).physical_now() + 10;
  slave->apply_commit(tx, ct);
  slave->apply_commit(tx, ct);  // duplicate commit: no-op
  slave->apply_abort(tx);       // late abort after commit: must not undo it
  auto r = slave->store().read(key_at(0, 1), ct + 100);
  EXPECT_EQ(r.kind, store::ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "w");
}

TEST(Reordering, HighJitterRunStaysCorrect) {
  // Crank jitter to 50% of the base latency and run a contended workload:
  // liveness and bookkeeping must survive heavy reordering.
  auto cfg = small_config(3, 2, ProtocolConfig::str(), msec(40));
  cfg.jitter_frac = 0.5;
  cfg.max_clock_skew = msec(5);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v0");
  cluster.run_for(msec(10));
  auto& coord = cluster.node(0).coordinator();
  std::vector<std::unique_ptr<test::TxProbe>> probes;
  for (int i = 0; i < 30; ++i) {
    probes.push_back(std::make_unique<test::TxProbe>());
    test::run_rmw(cluster, coord, {key_at(0, 1)}, test::numbered("v", i),
                  *probes.back());
    cluster.run_for(msec(5));
  }
  cluster.run_for(sec(3));
  int done = 0;
  for (const auto& p : probes) {
    if (p->done) ++done;
  }
  EXPECT_EQ(done, 30);
  EXPECT_EQ(coord.live_transactions(), 0u);
}

}  // namespace
}  // namespace str::protocol
