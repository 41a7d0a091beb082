// Deterministic min-queue of timed events.
//
// std::priority_queue cannot hold move-only payloads (top() is const), so we
// implement the ordering directly. Ties on the timestamp are broken by a
// monotonically increasing sequence number, which makes event order — and
// therefore every simulation — fully deterministic and FIFO among
// same-instant events.
//
// Layout is tuned for the scheduler's traffic, where this queue is the
// hottest structure in the repo:
//
//   * The heap orders 24-byte trivially-copyable handles; the closures
//     themselves live in a slot pool (free-list recycled) and never move
//     during sift operations. Sifting is a hole-percolation over raw
//     copies — no UniqueFunction vtable moves, no swaps. A closure moves
//     twice in all: into its slot on push (taken by rvalue reference, so
//     the caller's object is the only one built) and out of it on pop.
//   * Each slot also holds the event's DeliveryGate (128 B a slot: the
//     closure and the gate, two cache lines). A network delivery carries
//     the destination node and its crash epoch at send time, and the
//     Scheduler asks its gate predicate before running it, so a delivery
//     needs no wrapper closure around the message handler.
//   * Same-instant pushes (schedule_now cascades: RPC handling, promise
//     deliveries — the bulk of all traffic) bypass the heap entirely and go
//     to a FIFO side-buffer. All FIFO entries share one timestamp with
//     strictly increasing seq, so the buffer's front is its minimum; the
//     global minimum is whichever of {heap root, FIFO front} orders first
//     by (at, seq). Pop order is therefore bit-identical to a pure heap.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace str::sim {

/// Delivery gate of a network message: the destination node and its crash
/// epoch at send time. An empty gate (to == kInvalidNode) marks an ordinary,
/// ungated event. The gate rides beside the handler, in a cross-shard
/// mailbox entry and then in the event slot, rather than in a closure
/// wrapped around it: such a closure would hold a whole UniqueFunction and
/// overflow the inline buffer.
struct DeliveryGate {
  NodeId to = kInvalidNode;
  std::uint64_t epoch = 0;

  bool empty() const { return to == kInvalidNode; }
};

class EventQueue {
 public:
  struct Event {
    Timestamp at = 0;
    std::uint64_t seq = 0;
    UniqueFunction<void()> fn;
    DeliveryGate gate;

    bool before(const Event& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  void push(Timestamp at, UniqueFunction<void()>&& fn,
            DeliveryGate gate = {}) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = alloc_slot(std::move(fn), gate);
    if (fifo_head_ < fifo_.size() ? at == fifo_at_ : at == current_instant_) {
      if (fifo_head_ >= fifo_.size()) fifo_at_ = at;
      fifo_.push_back(FifoEntry{seq, slot});
      return;
    }
    heap_.push_back(Handle{at, seq, slot});
    sift_up(heap_.size() - 1);
  }

  bool empty() const { return heap_.empty() && fifo_head_ >= fifo_.size(); }

  std::size_t size() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }

  Timestamp next_time() const {
    STR_ASSERT(!empty());
    if (fifo_head_ >= fifo_.size()) return heap_.front().at;
    if (heap_.empty()) return fifo_at_;
    return heap_.front().at < fifo_at_ ? heap_.front().at : fifo_at_;
  }

  Event pop() {
    STR_ASSERT(!empty());
    Handle h;
    const bool fifo_has = fifo_head_ < fifo_.size();
    if (fifo_has &&
        (heap_.empty() ||
         !heap_.front().before(
             Handle{fifo_at_, fifo_[fifo_head_].seq, 0}))) {
      const FifoEntry e = fifo_[fifo_head_++];
      if (fifo_head_ >= fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      }
      h = Handle{fifo_at_, e.seq, e.slot};
    } else {
      h = heap_.front();
      pop_heap_root();
    }
    current_instant_ = h.at;
    Slot& slot = pool_[h.slot];
    Event ev{h.at, h.seq, std::move(slot.fn), slot.gate};
    free_.push_back(h.slot);
    return ev;
  }

  void clear() {
    heap_.clear();
    fifo_.clear();
    fifo_head_ = 0;
    pool_.clear();
    free_.clear();
  }

 private:
  struct Handle {
    Timestamp at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;

    bool before(const Handle& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  struct FifoEntry {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  struct Slot {
    UniqueFunction<void()> fn;
    DeliveryGate gate;
  };

  std::uint32_t alloc_slot(UniqueFunction<void()>&& fn, DeliveryGate gate) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      pool_[slot].fn = std::move(fn);
      pool_[slot].gate = gate;
      return slot;
    }
    pool_.emplace_back(std::move(fn), gate);
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void sift_up(std::size_t i) {
    const Handle h = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!h.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = h;
  }

  // Removes the root: percolate the hole down to a leaf, drop the last
  // element into it, and bubble it back up.
  void pop_heap_root() {
    const std::size_t n = heap_.size() - 1;
    if (n == 0) {
      heap_.pop_back();
      return;
    }
    const Handle last = heap_[n];
    heap_.pop_back();
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t smallest = i;
      const Handle* best = &last;
      if (l < n && heap_[l].before(*best)) {
        smallest = l;
        best = &heap_[l];
      }
      if (r < n && heap_[r].before(*best)) {
        smallest = r;
        best = &heap_[r];
      }
      if (smallest == i) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = last;
  }

  std::vector<Handle> heap_;
  std::vector<Slot> pool_;           ///< event slots, by Handle::slot
  std::vector<std::uint32_t> free_;  ///< recycled pool slots

  // Same-instant side buffer. All entries share fifo_at_; seq is strictly
  // increasing in push order, so fifo_[fifo_head_] is the buffer's minimum.
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  Timestamp fifo_at_ = 0;

  Timestamp current_instant_ = 0;  ///< timestamp of the last popped event
  std::uint64_t next_seq_ = 0;
};

}  // namespace str::sim
