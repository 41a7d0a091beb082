#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace str {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::reset() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double ThroughputMeter::rate(Timestamp now, Timestamp window) const {
  if (window == 0) return 0.0;
  const Timestamp start = now > window ? now - window : 0;
  const auto n = std::count_if(events_.begin(), events_.end(),
                               [start](Timestamp at) { return at >= start; });
  const double span_sec =
      static_cast<double>(now - start) / 1e6;
  return span_sec <= 0.0 ? 0.0 : static_cast<double>(n) / span_sec;
}

void ThroughputMeter::trim(Timestamp now, Timestamp keep) {
  const Timestamp cutoff = now > keep ? now - keep : 0;
  const auto old = std::remove_if(events_.begin(), events_.end(),
                                  [cutoff](Timestamp at) { return at < cutoff; });
  total_ += static_cast<std::uint64_t>(events_.end() - old);
  events_.erase(old, events_.end());
}

}  // namespace str
