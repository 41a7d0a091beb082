// End-to-end tests of the protocol engine on small clusters: the
// non-speculative base protocol (ClockSI-Rep), the speculative paths of STR,
// Precise Clocks, and the failure/abort machinery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"

namespace str::protocol {
namespace {

using test::key_at;
using test::small_config;
using test::TxProbe;

TEST(BaseProtocol, ReadLoadedValue) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "hello");
  cluster.run_for(msec(10));

  TxProbe probe;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, probe);
  cluster.run_for(sec(1));
  ASSERT_TRUE(probe.done);
  EXPECT_EQ(probe.result.outcome, TxOutcome::Committed);
  ASSERT_EQ(probe.reads.size(), 1u);
  EXPECT_TRUE(probe.reads[0].found);
  EXPECT_EQ(probe.reads[0].value, "hello");
}

TEST(BaseProtocol, ReadOnlyCommitsImmediately) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  TxProbe probe;
  const Timestamp start = cluster.now();
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, probe);
  cluster.run_for(msec(1));
  ASSERT_TRUE(probe.done);
  // A read-only transaction over local data needs no network round trips.
  EXPECT_LE(probe.finished_at - start, msec(1));
}

TEST(BaseProtocol, UpdateBecomesVisibleAfterCommit) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_rmw(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "new");
  EXPECT_FALSE(r.reads[0].speculative);
}

TEST(BaseProtocol, CommitTimestampExceedsSnapshot) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_rmw(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, "new", w);
  const Timestamp rs_upper = cluster.now();
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  EXPECT_GT(w.result.commit_ts, rs_upper - 1);  // P1: FC > RS
}

TEST(BaseProtocol, UpdateCommitTakesAWanRoundTrip) {
  // rf=2: the writer must synchronously replicate to one slave 100ms RTT away.
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  const Timestamp start = cluster.now();
  test::run_rmw(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  EXPECT_GE(w.finished_at - start, msec(100));  // one RTT to the slave
  EXPECT_LT(w.finished_at - start, msec(150));
}

TEST(BaseProtocol, RemoteReadFetchesFromReplica) {
  // Key mastered at node 1, rf=1: node 0 must read remotely.
  Cluster cluster(small_config(3, 1, ProtocolConfig::clocksi_rep(), msec(100)));
  cluster.load(key_at(1, 7), "far");
  cluster.run_for(msec(10));

  TxProbe r;
  const Timestamp start = cluster.now();
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(1, 7)}, r);
  cluster.run_for(sec(2));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "far");
  // One WAN round trip for the read.
  EXPECT_GE(r.finished_at - start, msec(100));
}

TEST(BaseProtocol, WriteWriteConflictAborts) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  // Two blind writers on the same key from the same node: the second's local
  // certification sees the first's uncommitted version.
  TxProbe a;
  TxProbe b;
  auto& coord = cluster.node(0).coordinator();
  test::run_write(cluster, coord, {key_at(0, 1)}, "a", a);
  test::run_write(cluster, coord, {key_at(0, 1)}, "b", b);
  cluster.run_for(sec(2));
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  EXPECT_EQ(a.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(b.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(b.result.abort_reason, AbortReason::LocalCertification);
}

TEST(BaseProtocol, NonSpeculativeReaderBlocksOnUncommittedVersion) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  auto& coord = cluster.node(0).coordinator();
  TxProbe w;
  test::run_write(cluster, coord, {key_at(0, 1)}, "new", w);
  cluster.run_for(msec(1));  // writer now local-committed, replicating

  TxProbe r;
  const Timestamp start = cluster.now();
  test::run_reads(cluster, coord, {key_at(0, 1)}, r);
  cluster.run_for(msec(10));
  EXPECT_FALSE(r.done);  // blocked: version is local-committed, no speculation
  cluster.run_for(sec(2));
  ASSERT_TRUE(r.done);
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Committed);
  // Reader waited for the writer's certification round trip.
  EXPECT_GE(r.finished_at - start, msec(90));
}

TEST(StrProtocol, SpeculativeReadObservesLocalCommitted) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  auto& coord = cluster.node(0).coordinator();
  TxProbe w;
  test::run_write(cluster, coord, {key_at(0, 1)}, "new", w);
  cluster.run_for(msec(1));  // local-committed, global certification running

  TxProbe r;
  test::run_reads(cluster, coord, {key_at(0, 1)}, r);
  cluster.run_for(msec(5));
  // The read returned speculatively, long before the writer's RTT completes.
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0].value, "new");
  EXPECT_TRUE(r.reads[0].speculative);
  // ... but the reader cannot *final commit* until the writer does (SPSI-4).
  EXPECT_FALSE(r.done);
  cluster.run_for(sec(2));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.result.outcome, TxOutcome::Committed);
}

TEST(StrProtocol, SpeculativeChainCommitsInOrder) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(0, 1), "v0");
  cluster.run_for(msec(10));

  auto& coord = cluster.node(0).coordinator();
  TxProbe t1;
  TxProbe t2;
  TxProbe t3;
  test::run_rmw(cluster, coord, {key_at(0, 1)}, "v1", t1);
  cluster.run_for(msec(1));
  test::run_rmw(cluster, coord, {key_at(0, 1)}, "v2", t2);
  cluster.run_for(msec(1));
  test::run_rmw(cluster, coord, {key_at(0, 1)}, "v3", t3);
  cluster.run_for(sec(2));
  ASSERT_TRUE(t1.done && t2.done && t3.done);
  EXPECT_EQ(t1.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(t2.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(t3.result.outcome, TxOutcome::Committed);
  // Each read the previous writer's speculative version.
  EXPECT_EQ(t2.reads[0].value, "v1");
  EXPECT_TRUE(t2.reads[0].speculative);
  EXPECT_EQ(t3.reads[0].value, "v2");
  // Commit timestamps are ordered with the chain.
  EXPECT_LT(t1.result.commit_ts, t2.result.commit_ts);
  EXPECT_LT(t2.result.commit_ts, t3.result.commit_ts);
}

TEST(StrProtocol, CascadingAbortKillsDependents) {
  // Writer's key is mastered at node 1 (remote): a conflicting write there
  // dooms it; the speculative reader must cascade.
  Cluster cluster(small_config(3, 1, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(1, 5), "v0");
  cluster.load(key_at(0, 6), "x0");
  cluster.run_for(msec(10));

  // Node 0 writes a remote key (mastered at node 1) plus a local key and
  // local-commits; its prepare travels ~50ms to node 1.
  auto& coord0 = cluster.node(0).coordinator();
  TxProbe loser;
  test::run_write(cluster, coord0, {key_at(1, 5), key_at(0, 6)}, "loser", loser);
  cluster.run_for(msec(1));

  // Meanwhile node 1 writes the same key and commits instantly (rf=1, all
  // local), with a commit timestamp beyond the loser's snapshot — so the
  // loser's prepare will find a concurrent committed conflict.
  TxProbe winner;
  test::run_write(cluster, cluster.node(1).coordinator(), {key_at(1, 5)},
                  "winner", winner);
  cluster.run_for(msec(1));

  TxProbe reader;
  test::run_reads(cluster, coord0, {key_at(0, 6)}, reader);
  cluster.run_for(msec(5));
  ASSERT_EQ(reader.reads.size(), 1u);
  EXPECT_EQ(reader.reads[0].value, "loser");  // speculative observation

  cluster.run_for(sec(2));
  ASSERT_TRUE(winner.done && loser.done && reader.done);
  EXPECT_EQ(winner.result.outcome, TxOutcome::Committed);
  EXPECT_EQ(loser.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(loser.result.abort_reason, AbortReason::GlobalCertification);
  EXPECT_EQ(reader.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(reader.result.abort_reason, AbortReason::CascadingAbort);
}

TEST(StrProtocol, ExtSpecExternalizesBeforeFinalCommit) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::ext_spec(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  const Timestamp start = cluster.now();
  test::run_rmw(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, "new", w);
  cluster.run_for(sec(2));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  // Externalization happened right after local certification (sub-ms), the
  // final commit an RTT later.
  EXPECT_GT(w.result.externalized_at, 0u);
  EXPECT_LT(w.result.externalized_at - start, msec(5));
  EXPECT_GE(w.finished_at - start, msec(100));
}

TEST(StrProtocol, SpeculationTogglePausesSpeculativeReads) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  cluster.set_speculation_enabled(false);
  auto& coord = cluster.node(0).coordinator();
  TxProbe w;
  test::run_write(cluster, coord, {key_at(0, 1)}, "new", w);
  cluster.run_for(msec(1));

  TxProbe r;
  test::run_reads(cluster, coord, {key_at(0, 1)}, r);
  cluster.run_for(msec(20));
  EXPECT_TRUE(r.reads.empty());  // blocked, not speculating
  cluster.run_for(sec(2));
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.reads.empty());
  EXPECT_FALSE(r.reads[0].speculative);
}

TEST(StrProtocol, MetricsCountCommitsAndAborts) {
  Cluster cluster(small_config(3, 2, ProtocolConfig::clocksi_rep()));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  auto& coord = cluster.node(0).coordinator();
  TxProbe a;
  TxProbe b;
  test::run_write(cluster, coord, {key_at(0, 1)}, "a", a);
  test::run_write(cluster, coord, {key_at(0, 1)}, "b", b);
  cluster.run_for(sec(2));
  EXPECT_EQ(cluster.metrics().commits(), 1u);
  EXPECT_EQ(cluster.metrics().aborts(), 1u);
  EXPECT_DOUBLE_EQ(cluster.metrics().abort_rate(), 0.5);
}

TEST(StrProtocol, NoLiveTransactionsLeftAfterQuiescence) {
  // Declared before the cluster, so the probes outlive every fiber.
  std::vector<std::unique_ptr<TxProbe>> probes;
  Cluster cluster(small_config(3, 2, ProtocolConfig::str(), msec(100)));
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  auto& coord = cluster.node(0).coordinator();
  for (int i = 0; i < 5; ++i) {
    probes.push_back(std::make_unique<TxProbe>());
    test::run_rmw(cluster, coord, {key_at(0, 1)}, test::numbered("v", i),
                  *probes.back());
    cluster.run_for(msec(3));
  }
  cluster.run_for(sec(5));
  EXPECT_EQ(coord.live_transactions(), 0u);
}

}  // namespace
}  // namespace str::protocol
