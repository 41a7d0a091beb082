// Cluster-wide experiment metrics.
//
// The coordinator reports commits/aborts/reads here; the client driver's
// first-activation times flow through the transaction records so final
// latency spans retries, exactly as the paper measures it ("time elapsed
// since its first activation until its final commit, including possible
// aborts and retries"). Events before the measurement start (warmup) are
// excluded from the reported aggregates; the raw commit meter always runs so
// the self-tuner can compare configurations at any time.
//
// Region-sharded runs report from every worker thread at once, so each
// record_* call writes the calling shard's own cache-line aligned lane and
// takes no lock. fold() adds the lanes to the totals; every reader folds
// first, and the lattice also folds (through the cluster's fold hook)
// before each global task and before run_until returns, so the lanes stay
// small. Readers, like fold(), run only while no window runs. Every sink is
// a commutative sum, a histogram or an unordered event list, so the totals
// are the same for every worker count.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace str::harness {

class Metrics {
 public:
  /// One lane per shard of the lattice that reports here; a record_* call
  /// from shard s (sim::ShardedScheduler::current_shard()) writes lane s.
  explicit Metrics(std::uint32_t lanes = 1);

  /// Begin the measurement window at `t`: everything recorded so far was
  /// warmup, so the aggregates are reset (the raw commit meter keeps
  /// running — the self-tuner needs full history). Folds the lanes first,
  /// so call it only while no window runs.
  void set_measurement_start(Timestamp t);
  Timestamp measurement_start() const { return measure_start_; }

  void record_commit(Timestamp now, Timestamp first_activation,
                     Timestamp externalized_at);
  void record_abort(Timestamp now, AbortReason reason, bool externalized);
  void record_read(bool speculative);

  /// Add every lane to the totals and zero it. Only while no window runs.
  /// Logically const: the totals the readers report do not change.
  void fold() const;

  // -- aggregates over the measurement window ------------------------------
  std::uint64_t commits() const { return totals().commits; }
  std::uint64_t aborts() const { return totals().aborts; }
  std::uint64_t aborts_of(AbortReason r) const {
    return totals().abort_by_reason[static_cast<std::size_t>(r)];
  }
  std::uint64_t attempts() const { return commits() + aborts(); }

  /// Fraction of transaction attempts that aborted.
  double abort_rate() const;

  /// Aborts attributable to speculation (STR's internal misspeculation).
  double misspeculation_rate() const;

  /// Ext-Spec: fraction of externalized attempts that finally aborted.
  double external_misspeculation_rate() const;

  std::uint64_t externalized() const { return totals().externalized; }
  std::uint64_t external_misspeculations() const {
    return totals().ext_misspec;
  }

  std::uint64_t reads() const { return totals().reads; }
  std::uint64_t speculative_reads() const {
    return totals().speculative_reads;
  }

  const Histogram& final_latency() const {
    fold();
    return final_latency_;
  }
  const Histogram& speculative_latency() const {
    fold();
    return speculative_latency_;
  }

  /// Raw commit meter (not warmup-gated), for the self-tuner.
  ThroughputMeter& commit_meter() {
    fold();
    return commit_meter_;
  }

 private:
  bool in_window(Timestamp now) const { return now >= measure_start_; }

  /// The warmup-gated counters: the totals, and one shard's lane of them.
  struct Counts {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::array<std::uint64_t, 16> abort_by_reason{};
    std::uint64_t externalized = 0;
    std::uint64_t ext_misspec = 0;
    std::uint64_t reads = 0;
    std::uint64_t speculative_reads = 0;

    void add(const Counts& o);
  };
  /// What one shard recorded since the last fold. Latencies travel as raw
  /// samples: a commit is rare next to a read, and a sample costs 8 B
  /// where a lane histogram would hold kilobytes of buckets.
  struct alignas(64) Lane {
    Counts counts;
    std::vector<Timestamp> commit_events;  ///< commit-meter entries
    std::vector<Timestamp> final_latencies;
    std::vector<Timestamp> speculative_latencies;
  };
  Lane& lane();
  const Counts& totals() const {
    fold();
    return total_;
  }

  Timestamp measure_start_ = 0;
  mutable std::vector<Lane> lanes_;
  mutable Counts total_;
  mutable Histogram final_latency_;
  mutable Histogram speculative_latency_;
  mutable ThroughputMeter commit_meter_;
};

}  // namespace str::harness
