// Per-thread free lists for small, short-lived heap blocks.
//
// Every read and every commit wait of a transaction needs a promise state,
// every attempt a coroutine frame (sim/coro.hpp), and every wire-mode send
// a frame (wire/frame.hpp). Those blocks are small, short-lived and
// recycled at the rate transactions run, so they come from here: one free
// list per 64 B size class up to kMaxPooledBytes, kept per thread. A
// thread parks at most kMaxParkedBytes; a block freed beyond that goes back
// to the global heap, so a burst of blocks (the frames in flight when a
// warm-up starts) does not stay set aside for the rest of the run. A
// shard's code runs on one worker thread inside a window, so the thread
// that frees a block is the thread that runs the code holding it, and no
// list needs a lock. A block may change threads: a frame last released on
// its destination's worker, or a state freed by a global task on the
// control thread (a crash tearing down a node's transactions), joins that
// thread's list.
//
// Each thread's lists are released at thread exit, so a block its holder
// leaks stays visible to LeakSanitizer; under AddressSanitizer a parked
// block is poisoned, so a use after release is still caught. Larger
// requests, and requests after the thread's lists were released, go
// straight to the global operator new / delete, and so do blocks given back
// on a thread that never took one from its lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define STR_BLOCK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STR_BLOCK_POOL_ASAN 1
#endif
#endif
#ifdef STR_BLOCK_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace str::sim {

class BlockPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooledBytes = 1024;
  static constexpr std::size_t kClasses = kMaxPooledBytes / kGranule;
  /// Bytes a thread's lists may hold. Uncapped, tpcc-durable's timed
  /// passes peaked 0.9 MB higher than with frames on the global heap; at
  /// this cap they peak lower, and bench_core_speed --wire allocates no
  /// more than uncapped.
  static constexpr std::size_t kMaxParkedBytes = 256 * 1024;

  /// A block of at least `bytes`, aligned like ::operator new's.
  static void* allocate(std::size_t bytes);

  /// Give back a block from allocate(bytes), with the same `bytes`.
  static void deallocate(void* p, std::size_t bytes) noexcept;

  /// Blocks parked on the calling thread's free lists.
  static std::size_t parked();

 private:
  enum Phase : std::uint8_t { kFresh, kLive, kReleased };

  /// One thread's lists. Trivially destructible and constant-initialized,
  /// so it stays readable through the thread's whole teardown; the
  /// release at thread exit is a separate object (block_pool.cpp).
  struct ThreadLists {
    void* heads[kClasses];
    std::size_t parked;
    std::size_t parked_bytes;
    Phase phase;
  };
  static inline thread_local ThreadLists lists_{};

  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  static std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

  static void poison(void* p, std::size_t n) {
#ifdef STR_BLOCK_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void unpoison(void* p, std::size_t n) {
#ifdef STR_BLOCK_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  /// Empty list: arm the thread-exit release on first use, then take a
  /// fresh block from the global heap.
  static void* allocate_fresh(std::size_t c);

  friend struct BlockPoolRelease;
};

inline void* BlockPool::allocate(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return ::operator new(bytes);
  const std::size_t c = class_of(bytes);
  ThreadLists& l = lists_;
  void* p = l.heads[c];
  if (p == nullptr) return allocate_fresh(c);
  unpoison(p, class_bytes(c));
  l.heads[c] = *static_cast<void**>(p);
  --l.parked;
  l.parked_bytes -= class_bytes(c);
  return p;
}

inline void BlockPool::deallocate(void* p, std::size_t bytes) noexcept {
  ThreadLists& l = lists_;
  const std::size_t c = class_of(bytes);
  if (bytes > kMaxPooledBytes || l.phase != kLive ||
      l.parked_bytes + class_bytes(c) > kMaxParkedBytes) {
    ::operator delete(p);
    return;
  }
  *static_cast<void**>(p) = l.heads[c];
  l.heads[c] = p;
  ++l.parked;
  l.parked_bytes += class_bytes(c);
  poison(p, class_bytes(c));
}

inline std::size_t BlockPool::parked() { return lists_.parked; }

}  // namespace str::sim
