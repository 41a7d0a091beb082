#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>

#include "common/assert.hpp"

namespace str {

Histogram::Histogram(int sub_bucket_bits) : sub_bits_(sub_bucket_bits) {
  STR_ASSERT(sub_bucket_bits >= 1 && sub_bucket_bits <= 16);
  min_ = std::numeric_limits<std::uint64_t>::max();
}

std::size_t Histogram::bucket_index(std::uint64_t value) const {
  if (value < (std::uint64_t{1} << sub_bits_)) {
    return static_cast<std::size_t>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - sub_bits_;
  const auto sub =
      static_cast<std::size_t>((value >> shift) & ((1u << sub_bits_) - 1));
  // Ranges below 2^sub_bits_ use identity buckets; each higher power of two
  // contributes 2^sub_bits_ buckets.
  return (static_cast<std::size_t>(msb - sub_bits_ + 1) << sub_bits_) + sub;
}

std::uint64_t Histogram::bucket_midpoint(std::size_t index) const {
  if (index < (std::size_t{1} << sub_bits_)) return index;
  const std::size_t range = (index >> sub_bits_) - 1;
  const std::size_t sub = index & ((std::size_t{1} << sub_bits_) - 1);
  const int shift = static_cast<int>(range);
  const std::uint64_t base = (std::uint64_t{1} << (shift + sub_bits_)) +
                             (static_cast<std::uint64_t>(sub) << shift);
  return base + (std::uint64_t{1} << shift) / 2;
}

void Histogram::hold_ranges(std::size_t lo, std::size_t hi) {
  const std::size_t held = ranges_held();
  if (held == 0) {
    // After a reset, the kept allocation serves when it is large enough.
    first_range_ = lo;
    buckets_.assign((hi - lo + 1) << sub_bits_, 0);
    return;
  }
  const std::size_t first = std::min(lo, first_range_);
  const std::size_t last = std::max(hi, first_range_ + held - 1);
  const std::size_t n = (last - first + 1) << sub_bits_;
  const auto shift =
      static_cast<std::ptrdiff_t>((first_range_ - first) << sub_bits_);
  const auto old_size = static_cast<std::ptrdiff_t>(buckets_.size());
  buckets_.reserve(n);
  buckets_.resize(n, 0);
  if (shift > 0) {
    // New ranges below: the held counts move up past them.
    std::copy_backward(buckets_.begin(), buckets_.begin() + old_size,
                       buckets_.begin() + shift + old_size);
    std::fill_n(buckets_.begin(), shift, 0);
  }
  first_range_ = first;
}

void Histogram::record(std::uint64_t value) { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t index = bucket_index(value);
  const std::size_t range = index >> sub_bits_;
  if (range < first_range_ || range >= first_range_ + ranges_held()) {
    hold_ranges(range, range);
  }
  buckets_[index - (first_range_ << sub_bits_)] += n;
  count_ += n;
  sum_ += value * n;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  STR_ASSERT(sub_bits_ == other.sub_bits_);
  if (other.ranges_held() > 0) {
    hold_ranges(other.first_range_,
                other.first_range_ + other.ranges_held() - 1);
    const std::size_t offset = (other.first_range_ - first_range_)
                               << sub_bits_;
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[offset + i] += other.buckets_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

std::uint64_t Histogram::min() const {
  return count_ == 0 ? 0 : min_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  const std::size_t base = first_range_ << sub_bits_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target || (seen == target && seen == count_)) {
      std::uint64_t mid = bucket_midpoint(base + i);
      return mid < min_ ? min_ : (mid > max_ ? max_ : mid);
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  first_range_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

}  // namespace str
