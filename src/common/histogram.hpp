// Log-bucketed latency histogram (HdrHistogram-style).
//
// Records values (virtual microseconds) with bounded relative error and
// supports percentile queries and merging. Merging is what lets the harness
// combine per-node histograms into cluster-wide latency distributions.
//
// Buckets are allocated only up to the highest power-of-two range recorded
// or merged so far: an empty histogram holds none, and one that records
// latencies below 2^24 us holds 18 ranges (18 KiB at the default precision)
// of the 58 a uint64 can reach.
#pragma once

#include <cstdint>
#include <vector>

namespace str {

class Histogram {
 public:
  /// `sub_bucket_bits` controls relative precision: each power-of-two range
  /// is split into 2^sub_bucket_bits linear sub-buckets (default ~0.8% error).
  explicit Histogram(int sub_bucket_bits = 7);

  void record(std::uint64_t value);
  void record_n(std::uint64_t value, std::uint64_t count);

  /// Merge another histogram (must have the same precision) into this one.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  /// Exact sum of the recorded values.
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const;
  std::uint64_t max() const { return max_; }
  double mean() const;

  /// Value at quantile q in [0, 1]. Returns 0 for an empty histogram.
  std::uint64_t value_at_quantile(double q) const;

  std::uint64_t p50() const { return value_at_quantile(0.50); }
  std::uint64_t p95() const { return value_at_quantile(0.95); }
  std::uint64_t p99() const { return value_at_quantile(0.99); }

  /// Zero the histogram. The bucket array keeps its allocation, so
  /// recording again after a warm-up reset allocates nothing.
  void reset();

  /// Heap bytes held by the bucket array.
  std::size_t bucket_bytes() const {
    return buckets_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::size_t bucket_index(std::uint64_t value) const;
  std::uint64_t bucket_midpoint(std::size_t index) const;
  /// Grow the bucket array to at least `n` buckets (exactly n when it must
  /// reallocate).
  void grow_to(std::size_t n);

  int sub_bits_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace str
