#include "harness/metrics.hpp"

#include "common/assert.hpp"
#include "protocol/cluster.hpp"

namespace str::harness {

void Metrics::set_measurement_start(Timestamp t) {
  STR_ASSERT_MSG(t == cluster_->now(),
                 "the measurement window starts at the cluster's clock");
  cluster_->reset_obs();
}

std::uint64_t Metrics::sum(const std::string& counter) const {
  std::uint64_t n = 0;
  for (NodeId id = 0; id < cluster_->num_nodes(); ++id) {
    const obs::Counter* c = cluster_->node(id).obs().find_counter(counter);
    STR_ASSERT_MSG(c != nullptr, "a coordinator counter is missing");
    n += c->value();
  }
  return n;
}

Histogram Metrics::merged(const std::string& timer) const {
  Histogram h;
  for (NodeId id = 0; id < cluster_->num_nodes(); ++id) {
    const obs::Timer* t = cluster_->node(id).obs().find_timer(timer);
    STR_ASSERT_MSG(t != nullptr, "a coordinator timer is missing");
    h.merge(t->hist());
  }
  return h;
}

std::uint64_t Metrics::aborts_of(AbortReason r) const {
  // None and values past the last reason name no abort and have no counter.
  if (r == AbortReason::None || r > AbortReason::NodeCrash) return 0;
  return sum(protocol::abort_counter_name(r));
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
  const std::uint64_t ext = externalized();
  return ext == 0 ? 0.0
                  : static_cast<double>(external_misspeculations()) /
                        static_cast<double>(ext);
}

}  // namespace str::harness
