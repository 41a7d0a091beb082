#include "tuning/self_tuner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "tests/protocol/test_util.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

namespace str::tuning {
namespace {

using protocol::Cluster;
using protocol::ProtocolConfig;

struct TunerRun {
  bool decided = false;
  bool speculation = false;
  std::uint32_t trials = 0;
  Timestamp decided_at = 0;
  std::uint64_t commits = 0;
};

TunerRun run_tuner(const workload::SyntheticConfig& wcfg, std::uint64_t seed,
                   double retune_threshold = 0.0, std::uint32_t threads = 1) {
  auto ccfg = str::test::small_config(5, 4, ProtocolConfig::str(), msec(80),
                                      seed);
  ccfg.threads = threads;
  Cluster cluster(ccfg);
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  workload::ClientPool pool(cluster, wl, 12);
  pool.start_all();

  SelfTunerConfig tcfg;
  tcfg.interval = sec(4);
  tcfg.settle = sec(1);
  tcfg.initial_delay = sec(1);
  tcfg.retune_threshold = retune_threshold;
  SelfTuner tuner(cluster, tcfg);
  tuner.start();
  cluster.run_for(sec(14));
  TunerRun out;
  out.decided = tuner.decided();
  out.speculation = tuner.speculation_chosen();
  out.trials = tuner.trials_run();
  out.decided_at = tuner.decided_at();
  out.commits = cluster.lifetime_commits();
  pool.request_stop_all();
  cluster.run_for(sec(2));
  return out;
}

TEST(SelfTuner, SameTrialsAndDecisionAtOneAndFourWorkers) {
  // The tuner sleeps in global tasks: every commit-total read and every
  // speculation flip happens with all shards stopped at one instant, so the
  // worker count cannot move its decision. Re-tuning is on so the CUSUM's
  // per-interval rate reads are covered too.
  const TunerRun one =
      run_tuner(workload::SyntheticConfig::synth_a(), 4, 0.05, 1);
  const TunerRun four =
      run_tuner(workload::SyntheticConfig::synth_a(), 4, 0.05, 4);
  ASSERT_TRUE(one.decided);
  EXPECT_EQ(one.trials, four.trials);
  EXPECT_EQ(one.speculation, four.speculation);
  EXPECT_EQ(one.decided_at, four.decided_at);
  EXPECT_EQ(one.commits, four.commits);
}

TEST(SelfTuner, DecidesAfterOneTrial) {
  auto run = run_tuner(workload::SyntheticConfig::synth_a(), 1);
  EXPECT_TRUE(run.decided);
  EXPECT_EQ(run.trials, 1u);
}

TEST(SelfTuner, ChoosesSpeculationOnFavourableWorkload) {
  // High local contention, negligible remote contention: speculation wins.
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  auto run = run_tuner(wcfg, 2);
  ASSERT_TRUE(run.decided);
  EXPECT_TRUE(run.speculation);
}

TEST(SelfTuner, DisablesSpeculationOnAdverseWorkload) {
  // Brutal remote contention: nearly every speculative chain is doomed.
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_b();
  wcfg.remote_hotspot = 1;
  wcfg.remote_access_prob = 0.6;
  wcfg.local_hotspot = 3;
  auto run = run_tuner(wcfg, 3);
  ASSERT_TRUE(run.decided);
  EXPECT_FALSE(run.speculation);
}

TEST(SelfTuner, RetuningRunsMoreTrialsWhenLoadDrifts) {
  // With a tight drift threshold the change detector keeps re-trialing on
  // a bursty workload.
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  auto ccfg = str::test::small_config(5, 4, ProtocolConfig::str(), msec(80), 4);
  Cluster cluster(ccfg);
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  workload::ClientPool pool(cluster, wl, 12);
  pool.start_all();
  SelfTunerConfig tcfg;
  tcfg.interval = sec(2);
  tcfg.settle = msec(500);
  tcfg.initial_delay = sec(1);
  tcfg.retune_threshold = 0.01;  // hair-trigger
  tcfg.monitor_interval = sec(1);
  SelfTuner tuner(cluster, tcfg);
  tuner.start();
  cluster.run_for(sec(30));
  EXPECT_GE(tuner.trials_run(), 2u);
  pool.request_stop_all();
  cluster.run_for(sec(2));
}

TEST(SelfTuner, LeavesClusterInChosenState) {
  auto ccfg = str::test::small_config(5, 4, ProtocolConfig::str(), msec(80), 5);
  Cluster cluster(ccfg);
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);
  workload::ClientPool pool(cluster, wl, 12);
  pool.start_all();
  SelfTunerConfig tcfg;
  tcfg.interval = sec(3);
  tcfg.settle = sec(1);
  tcfg.initial_delay = sec(1);
  SelfTuner tuner(cluster, tcfg);
  tuner.start();
  cluster.run_for(sec(12));
  ASSERT_TRUE(tuner.decided());
  EXPECT_EQ(cluster.flags().speculation_enabled, tuner.speculation_chosen());
  pool.request_stop_all();
  cluster.run_for(sec(2));
}

}  // namespace
}  // namespace str::tuning
