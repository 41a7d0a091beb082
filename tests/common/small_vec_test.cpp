#include "common/small_vec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace str {
namespace {

TEST(SmallVec, StaysInlineUpToN) {
  SmallVec<int, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v.back(), 2);
}

TEST(SmallVec, SpillsToHeapPastN) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, InsertShiftsTail) {
  SmallVec<int, 2> v;
  v.push_back(1);
  v.push_back(3);
  v.insert(v.begin() + 1, 2);  // forces a grow mid-insert
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 3);
  v.insert(v.begin(), 0);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[3], 3);
}

TEST(SmallVec, EraseRangeShiftsLeft) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  auto it = v.erase(v.begin() + 1, v.begin() + 4);  // {0, 4, 5}
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(*it, 4);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[2], 5);
}

TEST(SmallVec, ReverseIterationMatchesVector) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  int expect = 4;
  for (auto rit = v.rbegin(); rit != v.rend(); ++rit) EXPECT_EQ(*rit, expect--);
  EXPECT_EQ(expect, -1);
}

TEST(SmallVec, NonTrivialElementsDestructCorrectly) {
  // shared_ptr use-counts expose any missed destructor or double-destroy.
  auto probe = std::make_shared<int>(42);
  {
    SmallVec<std::shared_ptr<int>, 2> v;
    for (int i = 0; i < 10; ++i) v.push_back(probe);
    EXPECT_EQ(probe.use_count(), 11);
    v.erase(v.begin(), v.begin() + 5);
    EXPECT_EQ(probe.use_count(), 6);
    v.resize(2);
    EXPECT_EQ(probe.use_count(), 3);
  }
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(SmallVec, CopyIsDeep) {
  SmallVec<std::string, 2> a;
  a.push_back("x");
  a.push_back("y");
  a.push_back("z");  // heap mode
  SmallVec<std::string, 2> b(a);
  b[0] = "changed";
  EXPECT_EQ(a[0], "x");
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], "z");
  a = b;  // copy-assign over existing contents
  EXPECT_EQ(a[0], "changed");
}

TEST(SmallVec, MoveStealsHeapAndEmptiesSource) {
  SmallVec<std::string, 2> a;
  for (int i = 0; i < 8; ++i) a.push_back(std::to_string(i));
  SmallVec<std::string, 2> b(std::move(a));
  EXPECT_TRUE(a.empty());
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(b[7], "7");
  // Inline-mode move: element-wise, source cleared.
  SmallVec<std::string, 2> c;
  c.push_back("only");
  SmallVec<std::string, 2> d(std::move(c));
  EXPECT_TRUE(c.empty());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "only");
}

// The store's shape: one inline slot whose storage the heap pointer reuses
// once the vector spills. shared_ptr use-counts expose a missed destructor,
// a double destroy or a copy that aliases instead of copying; the sanitizer
// build catches reads of the reused storage.
using Chain = SmallVec<std::shared_ptr<int>, 1>;

TEST(SmallVec, SharedStorageHeaderIsEightBytes) {
  static_assert(sizeof(Chain) == 8 + sizeof(std::shared_ptr<int>));
  static_assert(sizeof(SmallVec<std::uint64_t, 1>) == 16);
}

TEST(SmallVec, CopyOfSpilledVectorOwnsItsElements) {
  auto probe = std::make_shared<int>(7);
  Chain a;
  for (int i = 0; i < 3; ++i) a.push_back(probe);
  ASSERT_GT(a.capacity(), 1u);
  {
    Chain b(a);
    EXPECT_EQ(probe.use_count(), 7);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b.capacity(), a.capacity());
    EXPECT_EQ(b[2], probe);
    Chain c;
    c.push_back(std::make_shared<int>(1));
    c = b;  // inline target takes a spilled copy
    EXPECT_EQ(probe.use_count(), 10);
    EXPECT_EQ(*c[0], 7);
  }
  EXPECT_EQ(probe.use_count(), 4);
}

TEST(SmallVec, MoveOfInlineVectorRelocatesTheElement) {
  auto probe = std::make_shared<int>(9);
  Chain a;
  a.push_back(probe);
  EXPECT_EQ(a.capacity(), 1u);
  Chain b(std::move(a));
  EXPECT_TRUE(a.empty());
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], probe);
  EXPECT_EQ(probe.use_count(), 2);
  // Move-assign an inline vector over a spilled one: the heap block is
  // freed and the target goes back to inline storage.
  Chain spilled;
  for (int i = 0; i < 4; ++i) spilled.push_back(probe);
  EXPECT_EQ(probe.use_count(), 6);
  spilled = std::move(b);
  EXPECT_EQ(spilled.capacity(), 1u);
  ASSERT_EQ(spilled.size(), 1u);
  EXPECT_EQ(probe.use_count(), 2);
  // And a spilled vector moved over an inline one hands over its block.
  Chain heap;
  for (int i = 0; i < 3; ++i) heap.push_back(probe);
  spilled = std::move(heap);
  EXPECT_EQ(spilled.size(), 3u);
  EXPECT_GT(spilled.capacity(), 1u);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.capacity(), 1u);
  EXPECT_EQ(probe.use_count(), 4);
}

TEST(SmallVec, ShrinkThenRegrowKeepsTheHeapBlock) {
  auto probe = std::make_shared<int>(3);
  Chain v;
  v.push_back(probe);
  v.push_back(probe);  // spills
  const std::size_t cap = v.capacity();
  ASSERT_GT(cap, 1u);
  v.resize(1);
  EXPECT_EQ(v.capacity(), cap);
  v.clear();
  EXPECT_EQ(probe.use_count(), 1);
  v.insert(v.begin(), probe);
  v.insert(v.begin(), std::make_shared<int>(2));
  EXPECT_EQ(v.capacity(), cap);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(*v[0], 2);
  EXPECT_EQ(v[1], probe);
  v.erase(v.begin(), v.begin() + 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], probe);
  for (int i = 0; i < 5; ++i) v.push_back(probe);  // regrows past cap
  EXPECT_GT(v.capacity(), cap);
  EXPECT_EQ(probe.use_count(), 7);
}

TEST(SmallVec, SelfAssignmentIsANoOp) {
  auto probe = std::make_shared<int>(5);
  Chain inline_one;
  inline_one.push_back(probe);
  Chain spilled;
  for (int i = 0; i < 3; ++i) spilled.push_back(probe);
  Chain& alias_inline = inline_one;
  Chain& alias_spilled = spilled;
  inline_one = alias_inline;
  spilled = alias_spilled;
  inline_one = std::move(alias_inline);
  spilled = std::move(alias_spilled);
  ASSERT_EQ(inline_one.size(), 1u);
  ASSERT_EQ(spilled.size(), 3u);
  EXPECT_EQ(inline_one[0], probe);
  EXPECT_EQ(spilled[2], probe);
  EXPECT_EQ(probe.use_count(), 5);
}

}  // namespace
}  // namespace str
