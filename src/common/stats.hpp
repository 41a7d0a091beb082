// Small numeric-summary helpers: Welford running statistics and a windowed
// throughput meter used by both the harness and the self-tuning controller.
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.hpp"

namespace str {

/// Welford's online mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

  void reset();

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Counts events (commits) against virtual time and reports throughput over
/// a trailing window. The self-tuner uses this to compare configurations.
/// Events need not arrive in time order: a region-sharded run appends each
/// shard's commits of an epoch window in turn, so rate() and trim() look at
/// every stored event instead of stopping at the first out-of-window one.
class ThroughputMeter {
 public:
  void record_event(Timestamp at) { events_.push_back(at); }

  /// Committed transactions per virtual second over [now - window, now].
  double rate(Timestamp now, Timestamp window) const;

  /// Drop events older than `now - keep` to bound memory.
  void trim(Timestamp now, Timestamp keep);

  std::uint64_t total() const { return total_ + events_.size(); }

 private:
  std::deque<Timestamp> events_;
  std::uint64_t total_ = 0;  ///< events already trimmed away
};

}  // namespace str
