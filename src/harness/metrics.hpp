// Cluster-wide experiment metrics: a read-only view over the node
// registries.
//
// Each coordinator counts its commits, aborts and reads once, into
// instruments of its own node's registry (docs/OBSERVABILITY.md,
// "Transaction outcomes"); this view sums them across the nodes. Final
// latency spans retries, exactly as the paper measures it ("time elapsed
// since its first activation until its final commit, including possible
// aborts and retries"). The warmup cutover is Cluster::reset_obs(), which
// set_measurement_start() calls, so every reader covers the measurement
// window. Readers run only while no window runs (between run_for calls).
#pragma once

#include <cstdint>
#include <string>

#include "common/histogram.hpp"
#include "common/types.hpp"

namespace str::protocol {
class Cluster;
}

namespace str::harness {

class Metrics {
 public:
  explicit Metrics(protocol::Cluster& cluster) : cluster_(&cluster) {}

  /// Begin the measurement window at `t`, the cluster's current time: the
  /// warmup cutover, Cluster::reset_obs().
  void set_measurement_start(Timestamp t);

  std::uint64_t commits() const { return sum("txn.commits"); }
  std::uint64_t aborts() const { return sum("txn.aborts"); }
  std::uint64_t aborts_of(AbortReason r) const;
  std::uint64_t attempts() const { return commits() + aborts(); }

  /// Fraction of transaction attempts that aborted.
  double abort_rate() const;

  /// Aborts attributable to speculation (STR's internal misspeculation).
  double misspeculation_rate() const;

  /// Ext-Spec: fraction of externalized attempts that finally aborted.
  double external_misspeculation_rate() const;

  std::uint64_t externalized() const { return sum("txn.externalized"); }
  std::uint64_t external_misspeculations() const {
    return sum("txn.ext_misspeculations");
  }

  std::uint64_t reads() const { return sum("txn.reads"); }
  std::uint64_t speculative_reads() const {
    return sum("txn.reads.speculative");
  }

  /// The nodes' latency timers, merged.
  Histogram final_latency() const { return merged("txn.final_latency"); }
  Histogram speculative_latency() const {
    return merged("txn.speculative_latency");
  }

 private:
  std::uint64_t sum(const std::string& counter) const;
  Histogram merged(const std::string& timer) const;

  protocol::Cluster* cluster_;
};

}  // namespace str::harness
