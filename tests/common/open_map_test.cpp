#include "common/open_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace str {
namespace {

using Map = OpenMap<std::uint64_t, std::string, std::hash<std::uint64_t>>;

TEST(OpenMap, InsertFindErase) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), nullptr);
  auto [v, inserted] = m.try_emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, "one");
  auto [v2, again] = m.try_emplace(1, "uno");
  EXPECT_FALSE(again);
  EXPECT_EQ(*v2, "one");  // existing value untouched
  EXPECT_TRUE(m.contains(1));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(OpenMap, BracketDefaultInserts) {
  Map m;
  m[7] = "seven";
  EXPECT_EQ(m[7], "seven");
  EXPECT_EQ(m[8], "");  // default-inserted
  EXPECT_EQ(m.size(), 2u);
}

TEST(OpenMap, GrowsPastInitialCapacityWithoutLosingEntries) {
  Map m;
  for (std::uint64_t k = 0; k < 1000; ++k) m.try_emplace(k, std::to_string(k));
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::string* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, std::to_string(k));
  }
}

TEST(OpenMap, BackwardShiftKeepsCollidingKeysReachable) {
  // Keys in one probe cluster: erase from the middle and make sure every
  // survivor is still found (the classic open-addressing tombstone bug).
  Map m;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 200; ++k) keys.push_back(k * 3);
  for (auto k : keys) m.try_emplace(k, std::to_string(k));
  for (std::size_t i = 0; i < keys.size(); i += 2) m.erase(keys[i]);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(m.find(keys[i]), nullptr) << keys[i];
    }
  }
}

TEST(OpenMap, EraseIfRemovesAllMatches) {
  Map m;
  for (std::uint64_t k = 0; k < 100; ++k) m.try_emplace(k, std::to_string(k));
  m.erase_if([](std::uint64_t k, const std::string&) { return k % 3 == 0; });
  EXPECT_EQ(m.size(), 66u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(m.find(k) != nullptr, k % 3 != 0) << k;
  }
}

TEST(OpenMap, IterationVisitsEachEntryOnce) {
  Map m;
  for (std::uint64_t k = 10; k < 60; ++k) m.try_emplace(k, "v");
  std::unordered_map<std::uint64_t, int> seen;
  for (const auto& slot : m) seen[slot.key]++;
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [k, count] : seen) EXPECT_EQ(count, 1) << k;
}

TEST(OpenMap, RandomizedAgainstUnorderedMap) {
  // Differential test: a few thousand random insert/erase/lookup ops must
  // agree with std::unordered_map at every step.
  Map m;
  std::unordered_map<std::uint64_t, std::string> ref;
  Rng rng(2024);
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t k = rng.uniform(300);
    switch (rng.uniform(3)) {
      case 0: {
        auto [v, ins] = m.try_emplace(k, std::to_string(op));
        auto [it, rins] = ref.try_emplace(k, std::to_string(op));
        EXPECT_EQ(ins, rins);
        EXPECT_EQ(*v, it->second);
        break;
      }
      case 1:
        EXPECT_EQ(m.erase(k), ref.erase(k) > 0);
        break;
      default: {
        const std::string* v = m.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << k;
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
      }
    }
    EXPECT_EQ(m.size(), ref.size());
  }
  std::size_t visited = 0;
  for (const auto& slot : m) {
    ++visited;
    auto it = ref.find(slot.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(slot.value, it->second);
  }
  EXPECT_EQ(visited, ref.size());
}

}  // namespace
}  // namespace str
