// Per-thread free lists for promise states, coroutine frames and wire
// frames (sim/block_pool.hpp). Run under ThreadSanitizer in CI: the lists are
// lock-free because each thread only ever touches its own, and a block
// that changes threads does so through the caller's synchronization.

#include "sim/block_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/coro.hpp"

namespace str::sim {
namespace {

TEST(BlockPool, AFreedBlockServesTheNextRequestOfItsSizeClass) {
  void* a = BlockPool::allocate(100);
  std::memset(a, 0xab, 100);
  const std::size_t parked = BlockPool::parked();
  BlockPool::deallocate(a, 100);
  EXPECT_EQ(BlockPool::parked(), parked + 1);
  // 65-128 B share a class: the parked block comes back.
  void* b = BlockPool::allocate(70);
  EXPECT_EQ(b, a);
  EXPECT_EQ(BlockPool::parked(), parked);
  // Another class does not take it.
  void* c = BlockPool::allocate(200);
  EXPECT_NE(c, a);
  BlockPool::deallocate(c, 200);
  BlockPool::deallocate(b, 70);
}

TEST(BlockPool, LargeBlocksBypassTheLists) {
  const std::size_t parked = BlockPool::parked();
  void* big = BlockPool::allocate(BlockPool::kMaxPooledBytes + 1);
  std::memset(big, 0, BlockPool::kMaxPooledBytes + 1);
  BlockPool::deallocate(big, BlockPool::kMaxPooledBytes + 1);
  EXPECT_EQ(BlockPool::parked(), parked);
}

TEST(BlockPool, ABlockFreedOnAnotherThreadJoinsThatThreadsList) {
  void* block = BlockPool::allocate(64);
  const std::size_t parked_here = BlockPool::parked();
  std::size_t parked_there = 0;
  std::thread t([&] {
    // A thread's lists start with its first allocation.
    BlockPool::deallocate(BlockPool::allocate(64), 64);
    const std::size_t before = BlockPool::parked();
    BlockPool::deallocate(block, 64);
    parked_there = BlockPool::parked() - before;
    // The thread exits holding the block on its list: the exit releases
    // it (LeakSanitizer would report it otherwise).
  });
  t.join();
  EXPECT_EQ(parked_there, 1u);
  EXPECT_EQ(BlockPool::parked(), parked_here);
}

TEST(BlockPool, AThreadParksAtMostTheCap) {
  // On a thread of its own, whose lists start empty and go with it: free
  // twice the cap's worth of blocks, and only the cap's worth is parked.
  std::thread([] {
    constexpr std::size_t kBytes = BlockPool::kGranule;
    constexpr std::size_t kCapBlocks = BlockPool::kMaxParkedBytes / kBytes;
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < 2 * kCapBlocks; ++i) {
      blocks.push_back(BlockPool::allocate(kBytes));
    }
    for (void* p : blocks) BlockPool::deallocate(p, kBytes);
    EXPECT_EQ(BlockPool::parked(), kCapBlocks);
    // A parked block serves the next request, and its place is free again.
    void* p = BlockPool::allocate(kBytes);
    EXPECT_EQ(BlockPool::parked(), kCapBlocks - 1);
    BlockPool::deallocate(p, kBytes);
    EXPECT_EQ(BlockPool::parked(), kCapBlocks);
  }).join();
}

TEST(BlockPool, ThreadsRecycleConcurrentlyAndHandBlocksOver) {
  // Each worker churns its own lists and passes every tenth block to the
  // next worker through a locked mailbox, the way a global task frees a
  // state that a worker allocated.
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  struct Handed {
    void* p;
    std::size_t bytes;
  };
  std::mutex mu;
  std::vector<std::vector<Handed>> mailbox(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t bytes = 16 + static_cast<std::size_t>(i % 7) * 64;
        auto* p = static_cast<unsigned char*>(BlockPool::allocate(bytes));
        p[0] = static_cast<unsigned char>(w);
        p[bytes - 1] = static_cast<unsigned char>(i);
        if (i % 10 == 0) {
          std::lock_guard<std::mutex> lk(mu);
          mailbox[(w + 1) % kThreads].push_back({p, bytes});
        } else {
          BlockPool::deallocate(p, bytes);
        }
        std::vector<Handed> mine;
        {
          std::lock_guard<std::mutex> lk(mu);
          mine.swap(mailbox[w]);
        }
        for (const Handed& h : mine) BlockPool::deallocate(h.p, h.bytes);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& box : mailbox) {
    for (const Handed& h : box) BlockPool::deallocate(h.p, h.bytes);
  }
}

Fiber await_into(Future<int> f, int& out) { out = co_await f; }

/// One read-like round trip: a promise, a fiber suspended on its future,
/// the fulfilment. Reports how many blocks were parked while it waited.
int round_trip(Scheduler& sched, int value, std::size_t& parked_waiting) {
  Promise<int> p(sched);
  int got = 0;
  await_into(p.future(), got);
  parked_waiting = BlockPool::parked();
  p.set_value(value);
  sched.run();
  return got;
}

TEST(BlockPool, PromiseStatesAndFiberFramesAreRecycled) {
  Scheduler sched;
  std::size_t waiting = 0;
  EXPECT_EQ(round_trip(sched, 1, waiting), 1);  // warms both lists
  const std::size_t parked = BlockPool::parked();
  EXPECT_EQ(round_trip(sched, 2, waiting), 2);
  // The state and the frame came off the lists, and both went back.
  EXPECT_EQ(waiting, parked - 2);
  EXPECT_EQ(BlockPool::parked(), parked);

  {
    Promise<int> p(sched);
    Future<int> f = p.future();
    Promise<int> copy = p;  // every handle shares the one state
    EXPECT_EQ(BlockPool::parked(), parked - 1);
  }
  EXPECT_EQ(BlockPool::parked(), parked);  // the last handle returned it
}

}  // namespace
}  // namespace str::sim
