// Small numeric-summary helpers: Welford running statistics.
#pragma once

#include <cstdint>

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

}  // namespace str
