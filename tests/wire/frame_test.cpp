// wire::Frame: one sealed frame shared by reference count. Copies share the
// bytes, a corruption copy never touches them, and the count survives
// copies and releases racing on several threads, the way the legs of one
// fan-out are delivered on several shards. Run under ThreadSanitizer in CI.
#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "protocol/messages.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

const std::vector<std::uint8_t> kBytes = {0x10, 0x20, 0x30, 0x40, 0x50};

TEST(Frame, CopiesShareTheBytesAndTheLastHolderFreesThem) {
  Frame empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0u);
  Frame a = Frame::copy_of(kBytes.data(), kBytes.size());
  ASSERT_EQ(a.size(), kBytes.size());
  EXPECT_TRUE(std::equal(a.data(), a.data() + a.size(), kBytes.begin()));
  EXPECT_EQ(a.use_count(), 1u);
  {
    const Frame b = a;
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(a.use_count(), 2u);
    Frame c = std::move(a);
    EXPECT_EQ(c.data(), b.data());
    EXPECT_EQ(b.use_count(), 2u);
    EXPECT_EQ(a.use_count(), 0u);  // NOLINT(bugprone-use-after-move)
    a = c;
    EXPECT_EQ(b.use_count(), 3u);
  }
  EXPECT_EQ(a.use_count(), 1u);
}

TEST(Frame, ABitFlipDamagesACopyOfItsOwn) {
  const Frame sent = Frame::copy_of(kBytes.data(), kBytes.size());
  const Frame leg = sent.with_bit_flipped(13);  // byte 1, bit 5
  EXPECT_NE(leg.data(), sent.data());
  EXPECT_EQ(sent.use_count(), 1u);
  std::vector<std::uint8_t> want = kBytes;
  want[1] ^= 0x20;
  EXPECT_EQ(std::vector<std::uint8_t>(leg.data(), leg.data() + leg.size()),
            want);
  EXPECT_TRUE(std::equal(sent.data(), sent.data() + sent.size(),
                         kBytes.begin()));
}

TEST(Frame, SealedFrameHasTheEncodedBytes) {
  const protocol::CommitMessage m{TxId{4, 9}, 3, 77, 0};
  const Frame frame = seal_frame(m);
  const Buffer bytes = encode_frame(m);
  ASSERT_EQ(frame.size(), bytes.size());
  EXPECT_TRUE(std::equal(frame.data(), frame.data() + frame.size(),
                         bytes.begin()));
  // Above the pool's largest class the block comes from the global heap.
  protocol::ReplicateRequest big{TxId{1, 1}, 0, 0, 5, nullptr, 0};
  auto updates = std::make_shared<protocol::UpdateList>();
  updates->emplace_back(1, std::make_shared<const Value>(4000, 'v'));
  big.updates = updates;
  const Frame large = seal_frame(big);
  const Buffer large_bytes = encode_frame(big);
  ASSERT_EQ(large.size(), large_bytes.size());
  EXPECT_TRUE(std::equal(large.data(), large.data() + large.size(),
                         large_bytes.begin()));
}

TEST(Frame, CountSurvivesCopiesAndReleasesOnManyThreads) {
  // Each thread holds the frame through its own copy, copies and releases
  // it repeatedly, and the last holder may be any of them.
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  Frame frame = Frame::copy_of(kBytes.data(), kBytes.size());
  const std::uint8_t* bytes = frame.data();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([held = frame, bytes] {
      std::uint64_t sum = 0;
      for (int i = 0; i < kRounds; ++i) {
        const Frame copy = held;
        EXPECT_EQ(copy.data(), bytes);
        sum += copy.data()[i % kBytes.size()];
      }
      EXPECT_GT(sum, 0u);
    });
  }
  frame = Frame();  // the threads' copies outlive ours
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace str::wire
