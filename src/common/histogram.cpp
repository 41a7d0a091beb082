#include "common/histogram.hpp"

#include <bit>
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

void Histogram::grow_to(std::size_t n) {
  if (n <= buckets_.size()) return;
  buckets_.reserve(n);
  buckets_.resize(n, 0);
}

void Histogram::record(std::uint64_t value) { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t index = bucket_index(value);
  if (index >= buckets_.size()) {
    // Through the end of the value's power-of-two range.
    grow_to(((index >> sub_bits_) + 1) << sub_bits_);
  }
  buckets_[index] += n;
  count_ += n;
  sum_ += value * n;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  STR_ASSERT(sub_bits_ == other.sub_bits_);
  grow_to(other.buckets_.size());
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
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
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target || (seen == target && seen == count_)) {
      std::uint64_t mid = bucket_midpoint(i);
      return mid < min_ ? min_ : (mid > max_ ? max_ : mid);
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

}  // namespace str
