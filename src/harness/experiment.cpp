#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/export.hpp"
#include "verify/spsi_checker.hpp"
#include "workload/client.hpp"

namespace str::harness {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const WorkloadFactory& factory) {
  protocol::Cluster::Config cluster_config = config.cluster;
  // A faulty network without timeouts/retries would simply wedge: enable
  // the recovery machinery whenever a fault plan is present. And unless the
  // plan says otherwise, stop injecting stochastic drops/dups when the
  // measurement window ends, so the drain is a recovery period in which the
  // cluster provably quiesces (an explicit `heal` directive overrides).
  if (!cluster_config.faults.empty()) {
    cluster_config.protocol.recovery.enabled = true;
    if (cluster_config.faults.link.heal_at == kTsInfinity) {
      cluster_config.faults.link.heal_at = config.warmup + config.duration;
    }
  }
  protocol::Cluster cluster(cluster_config);
  verify::HistoryRecorder history;
  if (config.verify) cluster.set_history(&history);
  std::unique_ptr<workload::Workload> wl = factory(cluster);
  wl->load(cluster);

  workload::ClientPool clients =
      config.total_clients > 0
          ? workload::ClientPool::with_total(cluster, *wl,
                                             config.total_clients)
          : workload::ClientPool(cluster, *wl, config.clients_per_node);
  clients.start_all();

  // Self-tuning runs during (an extended) warmup so the measurement window
  // reflects the configuration the tuner settled on — matching the paper's
  // "reported results for STR refer to the final configuration identified
  // by the self-tuning process".
  std::unique_ptr<tuning::SelfTuner> tuner;
  Timestamp warmup = config.warmup;
  if (config.self_tuning) {
    tuner = std::make_unique<tuning::SelfTuner>(cluster, config.tuner);
    tuner->start();
    const Timestamp tuner_span = config.tuner.initial_delay +
                                 2 * (config.tuner.interval +
                                      config.tuner.settle) +
                                 sec(1);
    warmup = std::max(warmup, tuner_span);
  }

  cluster.run_for(warmup);
  // Observability covers the measurement window only: drop warmup counts
  // and start tracing (if requested) at the cutover.
  cluster.reset_obs();
  if (config.tracing || !config.trace_out.empty()) {
    cluster.tracer().set_capacity(config.trace_capacity);
    cluster.tracer().set_enabled(true);
  }
  const Timestamp measure_start = cluster.now();
  cluster.run_for(config.duration);
  const Timestamp measure_end = cluster.now();

  // Drain: stop clients so coroutine frames unwind and in-flight
  // transactions resolve; their events still execute but fall outside the
  // window only in the throughput denominator (latency samples recorded in
  // the drain belong to transactions started inside the window and are
  // kept, matching how the paper's clients are stopped).
  clients.request_stop_all();
  // Under faults the drain must also cover orphan recovery: a coordinator
  // crash near the end of the window leaves prepared participants probing
  // on second-scale timers.
  Timestamp drain = config.drain;
  if (!cluster_config.faults.empty()) drain = std::max(drain, sec(10));
  cluster.run_for(drain);

  const Metrics m = cluster.metrics();
  ExperimentResult r;
  r.commits = m.commits();
  r.aborts = m.aborts();
  r.abort_rate = m.abort_rate();
  r.misspeculation_rate = m.misspeculation_rate();
  r.external_misspeculation_rate = m.external_misspeculation_rate();
  const double span_sec =
      static_cast<double>(measure_end - measure_start) / 1e6;
  r.throughput = span_sec <= 0 ? 0.0 : static_cast<double>(r.commits) / span_sec;
  const Histogram final_latency = m.final_latency();
  r.final_latency_mean = final_latency.mean();
  r.final_latency_p50 = final_latency.p50();
  r.final_latency_p95 = final_latency.p95();
  r.final_latency_p99 = final_latency.p99();
  const Histogram speculative_latency = m.speculative_latency();
  r.speculative_latency_mean = speculative_latency.mean();
  r.speculative_latency_p50 = speculative_latency.p50();
  r.speculative_reads = m.speculative_reads();
  r.total_reads = m.reads();
  const net::NetworkStats ns = cluster.network().stats();
  r.messages = ns.messages_sent;
  r.wan_messages = ns.wan_messages;
  r.speculation_enabled_at_end = cluster.flags().speculation_enabled;
  r.tuner_decided = tuner != nullptr && tuner->decided();

  // Per-phase latency breakdown from the cluster-merged registry.
  obs::Registry merged = cluster.merged_obs();
  // Surface trace loss in the merged metrics: analyses downstream of a
  // truncated ring are partial, so the signal must travel with the data.
  if (cluster.tracer().enabled()) {
    r.trace_dropped =
        cluster.tracer().dropped() + cluster.tracer().spans_dropped();
    merged.counter("trace.dropped").inc(r.trace_dropped);
    if (r.trace_dropped != 0) {
      std::fprintf(stderr,
                   "WARNING: tracer dropped %llu record(s) (ring capacity "
                   "%zu); trace analysis will be partial\n",
                   static_cast<unsigned long long>(r.trace_dropped),
                   cluster.tracer().capacity());
    }
  }
  static const std::string kPhasePrefix = "phase.";
  for (const auto& [name, timer] : merged.timers()) {
    if (name.rfind(kPhasePrefix, 0) != 0) continue;
    PhaseStat p;
    p.name = name.substr(kPhasePrefix.size());
    p.count = timer.count();
    p.mean_us = timer.hist().mean();
    p.p50_us = timer.hist().p50();
    p.p95_us = timer.hist().p95();
    p.p99_us = timer.hist().p99();
    p.max_us = timer.hist().max();
    r.phases.push_back(std::move(p));
  }
  if (const obs::Timer* t = merged.find_timer("phase.commit_snapshot_distance")) {
    r.commit_snapshot_distance_mean = t->hist().mean();
  }

  // Fault / recovery accounting.
  r.net_dropped = ns.dropped;
  r.net_duplicated = ns.duplicated;
  r.net_corrupted = ns.corrupted;
  r.net_inversions = ns.inversions;
  if (const obs::Counter* c = merged.find_counter("rpc.timeouts")) {
    r.rpc_timeouts = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("rpc.retries")) {
    r.rpc_retries = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("txn.orphan_aborts")) {
    r.orphan_aborts = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("recovery.lost_commits")) {
    r.lost_commits = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("transport.reconnects")) {
    r.transport_reconnects = c->value();
  }
  static const std::string kResentPrefix = "wire.resent.";
  for (const auto& [name, counter] : merged.counters()) {
    if (name.rfind(kResentPrefix, 0) != 0) continue;
    r.transport_resent += counter.value();
  }
  r.quiesce = cluster.quiesce_report();
  if (config.verify) {
    // Shards append history in execution order, which depends on the
    // worker count (and, with several workers, on wall-clock interleaving);
    // canonicalize to the content order so the checker's verdict (and any
    // dumped history) is a pure function of the simulated trajectory.
    history.canonicalize();
    verify::SpsiChecker checker(history);
    r.violations = checker.check_all();
  }

  if (!config.trace_out.empty()) {
    r.exports_ok &= obs::write_file(
        config.trace_out,
        obs::chrome_trace_json(cluster.tracer(), cluster.num_nodes()));
  }
  if (!config.metrics_out.empty()) {
    if (ends_with(config.metrics_out, ".csv")) {
      r.exports_ok &= obs::write_file(config.metrics_out, obs::metrics_csv(merged));
    } else {
      std::vector<std::pair<std::string, std::string>> extra;
      extra.emplace_back("throughput_tx_per_sec", fmt_double(r.throughput));
      extra.emplace_back("commits", std::to_string(r.commits));
      extra.emplace_back("aborts", std::to_string(r.aborts));
      extra.emplace_back("abort_rate", fmt_double(r.abort_rate));
      extra.emplace_back("final_latency_mean_us",
                         fmt_double(r.final_latency_mean));
      r.exports_ok &=
          obs::write_file(config.metrics_out, obs::metrics_json(merged, extra));
    }
  }
  return r;
}

}  // namespace str::harness
