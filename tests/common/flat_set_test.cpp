// FlatSet::insert(first, last): merging a range must leave exactly the
// contents and order of inserting its elements one at a time, for sorted
// and unsorted ranges, ranges that repeat elements or overlap the set, and
// empty ranges and sets.
#include "common/flat_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace str {
namespace {

template <typename T>
std::vector<T> contents(const FlatSet<T>& s) {
  return std::vector<T>(s.begin(), s.end());
}

/// `n` values in [0, range), in random order, possibly repeating.
std::vector<std::uint64_t> draw(Rng& rng, std::size_t n, std::uint64_t range) {
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.uniform(range);
  return out;
}

TEST(FlatSet, RangeInsertMatchesOneAtATimeOnRandomRanges) {
  Rng rng(0xf1a7);
  for (int round = 0; round < 2000; ++round) {
    // Small value ranges make repeats and overlaps common; some rounds
    // leave the set or the range empty.
    const std::uint64_t range = 1 + rng.uniform(64);
    const auto initial = draw(rng, rng.uniform(24), range);
    auto added = draw(rng, rng.uniform(24), range);
    if (rng.chance(0.5)) std::sort(added.begin(), added.end());
    FlatSet<std::uint64_t> merged;
    FlatSet<std::uint64_t> reference;
    for (std::uint64_t v : initial) {
      merged.insert(v);
      reference.insert(v);
    }
    merged.insert(added.begin(), added.end());
    for (std::uint64_t v : added) reference.insert(v);
    ASSERT_EQ(contents(merged), contents(reference)) << "round " << round;
  }
}

TEST(FlatSet, RangeInsertMergesAnotherSet) {
  // The protocol's use: a reader inherits a writer's snapshot writers.
  FlatSet<TxId> reader{TxId{1, 5}, TxId{3, 1}, TxId{2, 9}};
  const FlatSet<TxId> writer{TxId{2, 9}, TxId{0, 4}, TxId{3, 2}, TxId{1, 5}};
  FlatSet<TxId> reference = reader;
  for (const TxId& tx : writer) reference.insert(tx);
  reader.insert(writer.begin(), writer.end());
  EXPECT_EQ(contents(reader), contents(reference));
  EXPECT_EQ(reader.size(), 5u);
}

TEST(FlatSet, RangeInsertOfEmptyRangesAndIntoEmptySets) {
  FlatSet<std::uint64_t> s;
  const std::vector<std::uint64_t> none;
  s.insert(none.begin(), none.end());
  EXPECT_TRUE(s.empty());
  const std::vector<std::uint64_t> some = {7, 3, 7, 1};
  s.insert(some.begin(), some.end());
  EXPECT_EQ(contents(s), (std::vector<std::uint64_t>{1, 3, 7}));
  s.insert(none.begin(), none.end());
  EXPECT_EQ(contents(s), (std::vector<std::uint64_t>{1, 3, 7}));
  s.insert(some.begin(), some.end());  // nothing new
  EXPECT_EQ(contents(s), (std::vector<std::uint64_t>{1, 3, 7}));
}

}  // namespace
}  // namespace str
