// Metrics registry: named counters, gauges, and histogram-backed timers.
//
// One registry is owned by each node (plus one cluster-level registry for
// the real transport's counters); Cluster::merged_obs() merges them into a
// cluster-wide view. A node's registry is written only from its own shard,
// so even a region-sharded run on several workers needs no lock or atomic:
// an increment is one add, cheap enough to stay enabled in benchmark runs.
// Every instrument is registered when its owner is constructed; hot paths
// cache the instrument reference then (registry lookup is a map walk) and
// touch only the instrument itself.
//
// Names are dot-separated ("phase.lock_hold", "net.wan_messages"); exporters
// iterate instruments in name order, so output is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.hpp"

namespace str::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Latency timer: records virtual-microsecond durations into a log-bucketed
/// histogram (common/histogram.hpp), so merged percentiles stay meaningful.
class Timer {
 public:
  void record(std::uint64_t usecs) { hist_.record(usecs); }
  void merge(const Timer& other) { hist_.merge(other.hist_); }
  const Histogram& hist() const { return hist_; }
  std::uint64_t count() const { return hist_.count(); }
  void reset() { hist_.reset(); }

 private:
  Histogram hist_;
};

class Registry {
 public:
  /// Get-or-create. References remain valid for the registry's lifetime
  /// (std::map nodes are stable), so call sites may cache them.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Timer& timer(const std::string& name) { return timers_[name]; }

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Timer* find_timer(const std::string& name) const;

  /// Fold `other` into this registry: counters and gauges add, timer
  /// histograms merge. Used to aggregate per-node registries cluster-wide.
  void merge(const Registry& other);

  /// Zero counters and timers, keeping handles valid (warmup cutover).
  /// Gauges are instantaneous state and are left untouched.
  void reset();

  // Name-sorted iteration (std::map order) for exporters and reports.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Timer>& timers() const { return timers_; }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Timer> timers_;
};

}  // namespace str::obs
