#include "workload/client.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace str::workload {
namespace {

using protocol::Cluster;
using protocol::ProtocolConfig;

TEST(PerTypeStats, RecordsCommitsAndRetries) {
  PerTypeStats stats;
  stats.record(1, true, msec(10), 1);
  stats.record(1, true, msec(30), 3);
  stats.record(2, false, msec(5), 2);
  const auto* t1 = stats.type_stats(1);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->commits, 2u);
  EXPECT_EQ(t1->attempts, 4u);
  EXPECT_NEAR(t1->latency.mean(), double(msec(20)), double(msec(1)));
  const auto* t2 = stats.type_stats(2);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->failed, 1u);
  EXPECT_EQ(stats.type_stats(3), nullptr);
}

TEST(Client, CommitsTransactionsAndStops) {
  Cluster cluster(test::small_config(3, 2, ProtocolConfig::str(), msec(40)));
  SyntheticConfig wcfg;
  wcfg.keys_per_txn = 3;
  SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  Client client(cluster, wl, 0, Rng(1));
  client.start();
  cluster.run_for(sec(5));
  EXPECT_GT(client.committed(), 10u);
  client.request_stop();
  cluster.run_for(sec(2));
  EXPECT_TRUE(client.stopped());
}

TEST(ClientPool, TypeStatsCoverTpccMix) {
  Cluster cluster(test::small_config(3, 2, ProtocolConfig::str(), msec(40)));
  TpccConfig wcfg = TpccConfig::mix_b();
  wcfg.think_time_mean = msec(100);
  TpccWorkload wl(cluster, wcfg);
  wl.load(cluster);
  ClientPool pool(cluster, wl, 10);
  pool.enable_type_stats();
  pool.start_all();
  cluster.run_for(sec(10));
  pool.request_stop_all();
  cluster.run_for(sec(2));

  const PerTypeStats* stats = pool.type_stats();
  ASSERT_NE(stats, nullptr);
  // All three transaction types committed.
  for (int t : {1, 2, 3}) {
    const auto* ts = stats->type_stats(t);
    ASSERT_NE(ts, nullptr) << "type " << t;
    EXPECT_GT(ts->commits, 0u) << "type " << t;
    EXPECT_GE(ts->attempts, ts->commits);
  }
  // Per-type commits sum to the client totals.
  std::uint64_t total = 0;
  for (const auto& [type, ts] : stats->all()) total += ts.commits;
  EXPECT_EQ(total, cluster.lifetime_commits());
}

TEST(ClientPool, WithTotalDistributesRoundRobin) {
  Cluster cluster(test::small_config(3, 2, ProtocolConfig::str(), msec(40)));
  SyntheticConfig wcfg;
  wcfg.keys_per_txn = 2;
  SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  auto pool = ClientPool::with_total(cluster, wl, 7);
  EXPECT_EQ(pool.size(), 7u);
  pool.start_all();
  cluster.run_for(sec(3));
  pool.request_stop_all();
  cluster.run_for(sec(2));
  EXPECT_TRUE(pool.all_stopped());
  // Clients landed on all three nodes: each coordinator saw transactions.
  EXPECT_GT(cluster.lifetime_commits(), 0u);
}

}  // namespace
}  // namespace str::workload
