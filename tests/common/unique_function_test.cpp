#include "common/unique_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

namespace str {
namespace {

TEST(UniqueFunction, EmptyIsFalsy) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, InvokesSmallCallable) {
  int hits = 0;
  UniqueFunction<void()> f = [&hits]() { ++hits; };
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, ReturnsValue) {
  UniqueFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(3, 4), 7);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(42);
  UniqueFunction<int()> f = [p = std::move(p)]() { return *p; };
  EXPECT_EQ(f(), 42);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  int hits = 0;
  UniqueFunction<void()> a = [&hits]() { ++hits; };
  UniqueFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(UniqueFunction, MoveAssignReplacesTarget) {
  int first = 0;
  int second = 0;
  UniqueFunction<void()> a = [&first]() { ++first; };
  UniqueFunction<void()> b = [&second]() { ++second; };
  a = std::move(b);
  a();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(UniqueFunction, LargeCaptureGoesToHeap) {
  // Capture larger than the inline buffer still works.
  struct Big {
    char data[256] = {};
    int tag = 7;
  };
  Big big;
  big.tag = 13;
  UniqueFunction<int()> f = [big]() { return big.tag; };
  EXPECT_EQ(f(), 13);
  UniqueFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 13);
}

TEST(UniqueFunction, DestroysCapturedState) {
  auto counter = std::make_shared<int>(0);
  {
    UniqueFunction<void()> f = [counter]() {};
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(UniqueFunction, ResetReleasesState) {
  auto counter = std::make_shared<int>(0);
  UniqueFunction<void()> f = [counter]() {};
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(UniqueFunction, ForwardsArguments) {
  UniqueFunction<std::string(std::string)> f = [](std::string s) {
    return s + "!";
  };
  EXPECT_EQ(f("hi"), "hi!");
}

// Relocation: an inline, trivially copyable callable moves by a memcpy of
// the buffer and is never destroyed; anything else moves and dies through
// its vtable. The first two tests relocate 100 times each way, by move
// construction and by move assignment.

TEST(UniqueFunction, TriviallyCopyableCallableSurvivesRelocations) {
  // Fills the whole 96-byte buffer, so a short copy would lose state.
  std::array<std::uint64_t, 12> words{};
  std::iota(words.begin(), words.end(), std::uint64_t{1} << 40);
  auto fn = [words] {
    return std::accumulate(words.begin(), words.end(), std::uint64_t{0});
  };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(sizeof(fn) == 96);
  const std::uint64_t expected = fn();
  UniqueFunction<std::uint64_t()> f = fn;
  for (int i = 0; i < 100; ++i) {
    UniqueFunction<std::uint64_t()> g = std::move(f);
    EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
    f = std::move(g);
  }
  EXPECT_EQ(f(), expected);
}

TEST(UniqueFunction, SharedCaptureKeepsItsUseCountAcrossRelocations) {
  auto token = std::make_shared<int>(7);
  UniqueFunction<int()> f = [token] { return *token; };
  EXPECT_EQ(token.use_count(), 2);
  for (int i = 0; i < 100; ++i) {
    UniqueFunction<int()> g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);
    f = std::move(g);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(f(), 7);
  f = UniqueFunction<int()>();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(UniqueFunction, MoveAssignDestroysALiveTargetOfEitherKind) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  UniqueFunction<int()> target = [first] { return *first; };
  // A non-trivial target is destroyed when a trivial callable replaces it...
  target = UniqueFunction<int()>([v = 5] { return v; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(target(), 5);
  // ...and a trivial target makes room for a non-trivial one.
  target = UniqueFunction<int()>([second] { return *second; });
  EXPECT_EQ(second.use_count(), 2);
  EXPECT_EQ(target(), 2);
  // A heap-stored callable, replaced and replacing.
  struct Big {
    std::shared_ptr<int> p;
    char pad[128] = {};
  };
  target = UniqueFunction<int()>([big = Big{first}] { return *big.p; });
  EXPECT_EQ(second.use_count(), 1);
  EXPECT_EQ(first.use_count(), 2);
  EXPECT_EQ(target(), 1);
  target = UniqueFunction<int()>([second] { return *second; });
  EXPECT_EQ(first.use_count(), 1);
  target.reset();
  EXPECT_EQ(second.use_count(), 1);
}

}  // namespace
}  // namespace str
