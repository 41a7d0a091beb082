// One sealed wire frame, shared by reference count (docs/WIRE.md).
//
// A fan-out — the same message to several destinations in a row — is
// encoded and checksummed once, and every leg of it holds the one Frame:
// copying a Frame bumps a count, it never copies bytes. The bytes are
// immutable once sealed; a corruption fault damages a copy of its own
// (with_bit_flipped), never the frame the other legs deliver.
//
// The count and the bytes live in one block from sim::BlockPool (the
// global heap above its 1 KiB classes), so a frame of a replicate or a
// control message costs no heap allocation once the pool is warm. The
// legs of a fan-out are delivered on the destinations' shards, which may
// run on different worker threads, so the count is atomic; a block freed
// on another thread than the one that took it joins that thread's lists.
//
// net/ carries Frames but knows nothing of the message codec: it sees
// data() and size() only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "sim/block_pool.hpp"

namespace str::wire {

class Frame {
 public:
  Frame() = default;
  Frame(const Frame& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Frame(Frame&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Frame& operator=(Frame other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Frame() { release(); }

  /// A frame of `size` bytes for `fill(std::uint8_t* bytes)` to write in
  /// full, then sealed: nobody writes it afterwards.
  template <class Fill>
  static Frame build(std::size_t size, Fill&& fill) {
    Frame f;
    void* block = sim::BlockPool::allocate(sizeof(Rep) + size);
    f.rep_ = ::new (block) Rep{{1}, size};
    fill(f.bytes());
    return f;
  }

  /// A frame holding a copy of [data, data + size).
  static Frame copy_of(const std::uint8_t* data, std::size_t size) {
    return build(size, [&](std::uint8_t* out) {
      if (size != 0) std::memcpy(out, data, size);
    });
  }

  /// A copy of this frame with bit `bit_index` (LSB-first within each
  /// byte) flipped: what one corrupted leg of a fan-out receives.
  Frame with_bit_flipped(std::uint64_t bit_index) const {
    Frame f = copy_of(data(), size());
    f.bytes()[bit_index / 8] ^=
        static_cast<std::uint8_t>(1u << (bit_index % 8));
    return f;
  }

  const std::uint8_t* data() const {
    return rep_ == nullptr ? nullptr : bytes();
  }
  std::size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }

  /// Frames sharing these bytes, this one included (0 for an empty frame).
  std::uint32_t use_count() const {
    return rep_ == nullptr ? 0 : rep_->refs.load(std::memory_order_relaxed);
  }

 private:
  struct Rep {
    std::atomic<std::uint32_t> refs;
    std::size_t size;
  };

  std::uint8_t* bytes() const {
    return reinterpret_cast<std::uint8_t*>(rep_ + 1);
  }

  void release() noexcept {
    if (rep_ == nullptr) return;
    // acq_rel: the last holder's free happens after every other holder's
    // reads of the bytes, whichever thread they ran on.
    if (rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::size_t block = sizeof(Rep) + rep_->size;
      rep_->~Rep();
      sim::BlockPool::deallocate(rep_, block);
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace str::wire
