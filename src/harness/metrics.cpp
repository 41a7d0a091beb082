#include "harness/metrics.hpp"

#include "common/assert.hpp"
#include "sim/sharded.hpp"

namespace str::harness {

Metrics::Metrics(std::uint32_t lanes) : lanes_(lanes) {
  STR_ASSERT(lanes >= 1);
}

Metrics::Lane& Metrics::lane() {
  const std::uint32_t s = sim::ShardedScheduler::current_shard();
  STR_ASSERT_MSG(s < lanes_.size(), "metrics lane for an unknown shard");
  return lanes_[s];
}

void Metrics::Counts::add(const Counts& o) {
  commits += o.commits;
  aborts += o.aborts;
  for (std::size_t r = 0; r < abort_by_reason.size(); ++r) {
    abort_by_reason[r] += o.abort_by_reason[r];
  }
  externalized += o.externalized;
  ext_misspec += o.ext_misspec;
  reads += o.reads;
  speculative_reads += o.speculative_reads;
}

void Metrics::fold() const {
  for (Lane& l : lanes_) {
    total_.add(l.counts);
    l.counts = Counts{};
    for (Timestamp at : l.commit_events) commit_meter_.record_event(at);
    for (Timestamp v : l.final_latencies) final_latency_.record(v);
    for (Timestamp v : l.speculative_latencies) speculative_latency_.record(v);
    // Cleared, not freed: the next windows reuse the capacity.
    l.commit_events.clear();
    l.final_latencies.clear();
    l.speculative_latencies.clear();
  }
}

void Metrics::set_measurement_start(Timestamp t) {
  // Whatever was recorded before the cutover is warmup, folded or not.
  fold();
  measure_start_ = t;
  total_ = Counts{};
  final_latency_.reset();
  speculative_latency_.reset();
}

void Metrics::record_commit(Timestamp now, Timestamp first_activation,
                            Timestamp externalized_at) {
  Lane& l = lane();
  l.commit_events.push_back(now);
  if (!in_window(now)) return;
  ++l.counts.commits;
  l.final_latencies.push_back(now - first_activation);
  if (externalized_at != 0) {
    ++l.counts.externalized;
    l.speculative_latencies.push_back(externalized_at - first_activation);
  }
}

void Metrics::record_abort(Timestamp now, AbortReason reason,
                           bool was_externalized) {
  if (!in_window(now)) return;
  Counts& c = lane().counts;
  ++c.aborts;
  ++c.abort_by_reason[static_cast<std::size_t>(reason)];
  if (was_externalized) {
    ++c.externalized;
    ++c.ext_misspec;
  }
}

void Metrics::record_read(bool speculative) {
  Counts& c = lane().counts;
  ++c.reads;
  if (speculative) ++c.speculative_reads;
}

double Metrics::abort_rate() const {
  const std::uint64_t n = attempts();
  return n == 0 ? 0.0 : static_cast<double>(aborts()) / static_cast<double>(n);
}

double Metrics::misspeculation_rate() const {
  const std::uint64_t n = attempts();
  if (n == 0) return 0.0;
  const std::uint64_t m = aborts_of(AbortReason::Misspeculation) +
                          aborts_of(AbortReason::CascadingAbort);
  return static_cast<double>(m) / static_cast<double>(n);
}

double Metrics::external_misspeculation_rate() const {
  const Counts& t = totals();
  return t.externalized == 0 ? 0.0
                             : static_cast<double>(t.ext_misspec) /
                                   static_cast<double>(t.externalized);
}

}  // namespace str::harness
