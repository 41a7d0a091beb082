#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace str {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  EXPECT_EQ(h.p50(), 1000u);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 99u);
  // Values below 2^sub_bits are stored in identity buckets.
  EXPECT_EQ(h.value_at_quantile(0.0), 0u);
}

TEST(Histogram, PercentilesWithinRelativeError) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) h.record(rng.uniform(1'000'000));
  // Uniform [0, 1e6): p50 ~ 5e5, p99 ~ 9.9e5, within ~2% given bucketing.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5e5, 2e4);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9.9e5, 3e4);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, RecordNCounts) {
  Histogram h;
  h.record_n(500, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.p50(), 500u);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.record(100);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_DOUBLE_EQ(a.mean(), 200.0);
}

TEST(Histogram, MergeEmptyIsNoop) {
  Histogram a;
  Histogram b;
  a.record(42);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(1);
  h.record(1000000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.record(5);
  EXPECT_EQ(h.min(), 5u);
}

TEST(Histogram, HandlesLargeValues) {
  Histogram h;
  const std::uint64_t big = std::uint64_t{1} << 60;
  h.record(big);
  EXPECT_EQ(h.max(), big);
  // Midpoint of the bucket is within ~1% of the value.
  const double q = static_cast<double>(h.p50());
  EXPECT_NEAR(q / static_cast<double>(big), 1.0, 0.01);
}

TEST(Histogram, QuantilesMonotone) {
  Histogram h;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.record(rng.uniform(100000));
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const auto v = h.value_at_quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// Reference with the original eager layout: every power-of-two range a
// uint64 can reach is allocated up front. Bucketing follows the
// documented scheme (identity buckets below 2^7, then 128 linear
// sub-buckets per power of two, reported at the bucket midpoint).
class EagerHistogram {
 public:
  static constexpr int kSubBits = 7;

  void record(std::uint64_t v) {
    ++buckets_[index(v)];
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const EagerHistogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    if (other.count_ > 0) {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }

  void reset() { *this = EagerHistogram(); }

  std::uint64_t count() const { return count_; }

  std::uint64_t quantile(double q) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target || (seen == target && seen == count_)) {
        return std::clamp(midpoint(i), min_, max_);
      }
    }
    return max_;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < (std::uint64_t{1} << kSubBits)) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) & ((1u << kSubBits) - 1));
  }

  static std::uint64_t midpoint(std::size_t i) {
    if (i < (std::size_t{1} << kSubBits)) return i;
    const int shift = static_cast<int>((i >> kSubBits) - 1);
    const std::uint64_t sub = i & ((std::size_t{1} << kSubBits) - 1);
    return (std::uint64_t{1} << (shift + kSubBits)) + (sub << shift) +
           (std::uint64_t{1} << shift) / 2;
  }

  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(std::size_t{64} << kSubBits, 0);
  std::uint64_t count_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// A value of random magnitude: every power-of-two range is equally likely.
std::uint64_t random_value(Rng& rng) {
  const int bits = static_cast<int>(rng.uniform(65));
  if (bits == 0) return 0;
  if (bits == 64) return rng.next();
  return (std::uint64_t{1} << (bits - 1)) |
         rng.uniform(std::uint64_t{1} << (bits - 1));
}

void expect_same(const Histogram& lazy, const EagerHistogram& eager) {
  ASSERT_EQ(lazy.count(), eager.count());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    ASSERT_EQ(lazy.value_at_quantile(q), eager.quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, EmptyHistogramHoldsNoBuckets) {
  Histogram h;
  EXPECT_EQ(h.bucket_bytes(), 0u);
  Histogram other;
  h.merge(other);
  EXPECT_EQ(h.bucket_bytes(), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, BucketsStopAtTheHighestRecordedRange) {
  constexpr std::size_t kRange = 128 * sizeof(std::uint64_t);  // 2^7 buckets
  Histogram h;
  h.record(127);  // identity range only
  EXPECT_EQ(h.bucket_bytes(), 1 * kRange);
  h.record(1000);  // 2^9 <= v < 2^10: range 3
  EXPECT_EQ(h.bucket_bytes(), 4 * kRange);
  h.record((std::uint64_t{1} << 24) - 1);  // below 2^24: 18 ranges
  EXPECT_EQ(h.bucket_bytes(), 18 * kRange);
  h.record(5);  // lower values never grow it
  EXPECT_EQ(h.bucket_bytes(), 18 * kRange);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket_bytes(), 58 * kRange);
}

TEST(Histogram, MatchesEagerReference) {
  Rng rng(17);
  Histogram lazy;
  EagerHistogram eager;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{1} << 63}) {
    lazy.record(v);
    eager.record(v);
  }
  expect_same(lazy, eager);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = random_value(rng);
    lazy.record(v);
    eager.record(v);
  }
  expect_same(lazy, eager);
}

TEST(Histogram, MergesOfDifferentSizesMatchEagerReference) {
  Rng rng(23);
  // small holds low ranges only, big reaches 2^63: merge each way.
  auto fill = [&rng](Histogram& h, EagerHistogram& e, std::uint64_t bound,
                     int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = rng.uniform(bound);
      h.record(v);
      e.record(v);
    }
  };
  Histogram small;
  Histogram big;
  EagerHistogram small_ref;
  EagerHistogram big_ref;
  fill(small, small_ref, 300, 500);
  fill(big, big_ref, std::uint64_t{1} << 40, 500);
  big.record(std::uint64_t{1} << 63);
  big_ref.record(std::uint64_t{1} << 63);

  Histogram grown = small;  // smaller absorbs larger: must grow
  EagerHistogram grown_ref = small_ref;
  grown.merge(big);
  grown_ref.merge(big_ref);
  expect_same(grown, grown_ref);

  Histogram absorbed = big;  // larger absorbs smaller: grows below
  EagerHistogram absorbed_ref = big_ref;
  absorbed.merge(small);
  absorbed_ref.merge(small_ref);
  expect_same(absorbed, absorbed_ref);
  // Either way the result holds the ranges of both, and no more.
  EXPECT_EQ(absorbed.bucket_bytes(), grown.bucket_bytes());
  expect_same(grown, absorbed_ref);
}

TEST(Histogram, MergesOfDisjointRangesHoldOnlyTheirSpan) {
  constexpr std::size_t kRange = 128 * sizeof(std::uint64_t);  // 2^7 buckets
  Histogram low;
  Histogram high;
  EagerHistogram low_ref;
  EagerHistogram high_ref;
  for (std::uint64_t v : {1000u, 1500u, 2000u}) {  // ranges 3 and 4
    low.record(v);
    low_ref.record(v);
  }
  for (std::uint64_t v : {1u << 20, 3u << 20}) {  // ranges 14 and 15
    high.record(v);
    high_ref.record(v);
  }
  EXPECT_EQ(low.bucket_bytes(), 2 * kRange);
  EXPECT_EQ(high.bucket_bytes(), 2 * kRange);
  Histogram up = low;
  up.merge(high);  // grows above what it holds
  Histogram down = high;
  down.merge(low);  // grows below what it holds
  EagerHistogram ref = low_ref;
  ref.merge(high_ref);
  expect_same(up, ref);
  expect_same(down, ref);
  EXPECT_EQ(up.bucket_bytes(), 13 * kRange);  // ranges 3 to 15
  EXPECT_EQ(down.bucket_bytes(), 13 * kRange);
  EXPECT_EQ(up.min(), 1000u);
  EXPECT_EQ(down.max(), 3u << 20);
}

TEST(Histogram, RecordingBelowTheLowestRangeHeldKeepsEveryCount) {
  constexpr std::size_t kRange = 128 * sizeof(std::uint64_t);
  Rng rng(31);
  Histogram lazy;
  EagerHistogram eager;
  const auto record = [&](std::uint64_t v) {
    lazy.record(v);
    eager.record(v);
  };
  record(std::uint64_t{1} << 30);  // range 24 alone
  EXPECT_EQ(lazy.bucket_bytes(), 1 * kRange);
  record((std::uint64_t{1} << 20) + 5);  // range 14: ten ranges below
  EXPECT_EQ(lazy.bucket_bytes(), 11 * kRange);
  expect_same(lazy, eager);
  // Descending magnitudes, each below the lowest range held so far.
  for (int bits = 40; bits >= 0; --bits) {
    for (int i = 0; i < 50; ++i) {
      record(bits == 0 ? 0 : (std::uint64_t{1} << (bits - 1)) +
                                 rng.uniform(std::uint64_t{1} << (bits - 1)));
    }
  }
  expect_same(lazy, eager);
  EXPECT_EQ(lazy.bucket_bytes(), 34 * kRange);  // ranges 0 to 33
  // After a reset the allocation is reused from the new lowest range.
  const std::size_t held = lazy.bucket_bytes();
  lazy.reset();
  eager.reset();
  record(5000);
  record(7);
  expect_same(lazy, eager);
  EXPECT_EQ(lazy.bucket_bytes(), held);
}

TEST(Histogram, ResetThenRecordMatchesEagerReference) {
  Rng rng(29);
  Histogram lazy;
  EagerHistogram eager;
  for (int i = 0; i < 5000; ++i) lazy.record(random_value(rng));
  const std::size_t held = lazy.bucket_bytes();
  lazy.reset();
  EXPECT_EQ(lazy.count(), 0u);
  EXPECT_EQ(lazy.p50(), 0u);
  EXPECT_EQ(lazy.bucket_bytes(), held);  // the allocation is kept for reuse
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform(10'000);
    lazy.record(v);
    eager.record(v);
  }
  expect_same(lazy, eager);
  eager.reset();
  lazy.reset();
  lazy.record(128);
  eager.record(128);
  expect_same(lazy, eager);
}

}  // namespace
}  // namespace str
