#include "sim/block_pool.hpp"

namespace str::sim {

/// Frees the calling thread's parked blocks when the thread exits, and
/// sends every later give-back on that thread to the global heap.
struct BlockPoolRelease {
  ~BlockPoolRelease() {
    BlockPool::ThreadLists& l = BlockPool::lists_;
    for (std::size_t c = 0; c < BlockPool::kClasses; ++c) {
      void* p = l.heads[c];
      while (p != nullptr) {
        BlockPool::unpoison(p, BlockPool::class_bytes(c));
        void* next = *static_cast<void**>(p);
        ::operator delete(p);
        p = next;
      }
      l.heads[c] = nullptr;
    }
    l.parked = 0;
    l.parked_bytes = 0;
    l.phase = BlockPool::kReleased;
  }
};

void* BlockPool::allocate_fresh(std::size_t c) {
  ThreadLists& l = lists_;
  if (l.phase == kFresh) {
    static thread_local BlockPoolRelease release;
    (void)release;
    l.phase = kLive;
  }
  return ::operator new(class_bytes(c));
}

}  // namespace str::sim
