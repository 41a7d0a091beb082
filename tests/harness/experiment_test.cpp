#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/metrics.hpp"
#include "harness/parallel_sweep.hpp"
#include "harness/report.hpp"
#include "protocol/coordinator.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"

namespace str::harness {
namespace {

using protocol::Cluster;
using protocol::ProtocolConfig;

// harness::Metrics sums the coordinators' outcome instruments across the
// node registries. These cases count outcomes straight into two
// coordinators and read them back through the view and the merged registry.
struct TwoNodes {
  Cluster cluster{test::small_config(2, 1, ProtocolConfig::str(), msec(50))};
  protocol::Coordinator& c0 = cluster.node(0).coordinator();
  protocol::Coordinator& c1 = cluster.node(1).coordinator();
};

TEST(Metrics, WarmupIsExcluded) {
  TwoNodes t;
  t.c0.count_commit(sec(1), 0, 0);
  t.c1.count_abort(sec(2), AbortReason::LocalCertification, false);
  t.cluster.run_for(sec(5));
  t.cluster.metrics().set_measurement_start(t.cluster.now());
  EXPECT_EQ(t.cluster.obs_cutover(), sec(5));
  EXPECT_EQ(t.cluster.metrics().commits(), 0u);
  EXPECT_EQ(t.cluster.metrics().aborts(), 0u);
  // An outcome timed before the cutover (an in-doubt resolution registered
  // during the warmup) stays out of the window.
  t.c1.count_commit(sec(4), sec(3), 0);
  t.c1.count_abort(sec(4), AbortReason::NodeCrash, false);
  EXPECT_EQ(t.cluster.metrics().commits(), 0u);
  EXPECT_EQ(t.cluster.metrics().aborts(), 0u);
  t.c0.count_commit(sec(6), sec(5), 0);
  EXPECT_EQ(t.cluster.metrics().commits(), 1u);
  EXPECT_EQ(t.cluster.merged_obs().counter("txn.commits").value(), 1u);
  // The lifetime total keeps every commit, warmup included.
  EXPECT_EQ(t.cluster.lifetime_commits(), 3u);
}

TEST(Metrics, AbortBreakdownByReason) {
  TwoNodes t;
  t.c0.count_abort(sec(1), AbortReason::LocalCertification, false);
  t.c1.count_abort(sec(1), AbortReason::Misspeculation, false);
  t.c1.count_abort(sec(1), AbortReason::CascadingAbort, false);
  t.c0.count_commit(sec(1), 0, 0);
  const Metrics m = t.cluster.metrics();
  EXPECT_EQ(m.aborts_of(AbortReason::Misspeculation), 1u);
  EXPECT_DOUBLE_EQ(m.abort_rate(), 0.75);
  EXPECT_DOUBLE_EQ(m.misspeculation_rate(), 0.5);
  const obs::Registry merged = t.cluster.merged_obs();
  EXPECT_EQ(merged.find_counter("txn.aborts")->value(), 3u);
  EXPECT_EQ(merged.find_counter("txn.aborts.local_certification")->value(),
            1u);
  EXPECT_EQ(merged.find_counter("txn.aborts.cascading_abort")->value(), 1u);
  EXPECT_EQ(merged.find_counter("txn.aborts.user_abort")->value(), 0u);
}

TEST(Metrics, ExternalMisspeculationRate) {
  TwoNodes t;
  t.c0.count_commit(sec(1), 0, usec(500));  // externalized then committed
  t.c1.count_abort(sec(1), AbortReason::GlobalCertification, true);
  EXPECT_DOUBLE_EQ(t.cluster.metrics().external_misspeculation_rate(), 0.5);
  const obs::Registry merged = t.cluster.merged_obs();
  EXPECT_EQ(merged.find_counter("txn.externalized")->value(), 2u);
  EXPECT_EQ(merged.find_counter("txn.ext_misspeculations")->value(), 1u);
  EXPECT_EQ(merged.find_timer("txn.speculative_latency")->count(), 1u);
}

TEST(Metrics, LatencySpansRetries) {
  TwoNodes t;
  // First activation at t=1s, commit at t=4s: final latency 3s.
  t.c1.count_commit(sec(4), sec(1), 0);
  EXPECT_NEAR(t.cluster.metrics().final_latency().mean(), double(sec(3)),
              double(msec(30)));
  EXPECT_EQ(t.cluster.merged_obs().find_timer("txn.final_latency")->count(),
            1u);
}

ExperimentConfig small_experiment(ProtocolConfig proto, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.cluster = test::small_config(3, 2, proto, msec(50), seed);
  cfg.clients_per_node = 3;
  cfg.warmup = sec(1);
  cfg.duration = sec(5);
  cfg.drain = sec(2);
  return cfg;
}

WorkloadFactory synth_factory() {
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  wcfg.keys_per_txn = 4;
  return [wcfg](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
  };
}

TEST(Experiment, ProducesConsistentCounts) {
  auto r = run_experiment(small_experiment(ProtocolConfig::str(), 1),
                          synth_factory());
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GE(r.final_latency_p99, r.final_latency_p50);
  EXPECT_NEAR(r.throughput, static_cast<double>(r.commits) / 5.0,
              r.throughput * 0.01);
}

TEST(Experiment, TotalClientsOverride) {
  auto cfg = small_experiment(ProtocolConfig::str(), 2);
  cfg.total_clients = 1;  // one client in the whole cluster
  auto r = run_experiment(cfg, synth_factory());
  EXPECT_GT(r.commits, 0u);
  // One client, ~100-200ms per transaction: bounded throughput.
  EXPECT_LT(r.throughput, 50.0);
}

TEST(Sweep, ResultsInJobOrderAndDeterministic) {
  std::vector<SweepJob> jobs;
  for (std::uint64_t seed : {1, 2, 3, 1}) {
    SweepJob job;
    job.config = small_experiment(ProtocolConfig::str(), seed);
    job.factory = synth_factory();
    jobs.push_back(std::move(job));
  }
  auto results = run_sweep(jobs, 2);
  ASSERT_EQ(results.size(), 4u);
  // Same seed => identical experiment, regardless of which thread ran it.
  EXPECT_EQ(results[0].commits, results[3].commits);
  EXPECT_EQ(results[0].messages, results[3].messages);
  // Different seeds draw different keys (commit *counts* may coincide when
  // latency-bound, so compare the full message trace instead).
  EXPECT_NE(results[0].messages, results[1].messages);
}

TEST(Sweep, SingleThreadMatchesParallel) {
  std::vector<SweepJob> jobs;
  for (int i = 0; i < 2; ++i) {
    SweepJob job;
    job.config = small_experiment(ProtocolConfig::clocksi_rep(), 7);
    job.factory = synth_factory();
    jobs.push_back(std::move(job));
  }
  auto seq = run_sweep(jobs, 1);
  auto par = run_sweep(jobs, 2);
  EXPECT_EQ(seq[0].commits, par[1].commits);
}

TEST(Report, TableFormatting) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  // Just exercise print to a memory stream target (stdout here) and the
  // formatting helpers.
  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::fmt_ms(1500), "1.5ms");
  EXPECT_EQ(Table::fmt_pct(0.256), "25.6%");
}

}  // namespace
}  // namespace str::harness
