// Log bytes that hold their value payloads by reference
// (docs/DURABILITY.md §1).
//
// A LogBuffer is one WAL frame as an encoder writes it, or a run of frames:
// a durable chunk of a storage::Medium. It keeps the log's bytes in two
// parts: every byte that is not a value payload in one buffer, and every
// non-null payload as a slice, an offset into that buffer plus the
// SharedValue whose bytes the frame encodes. The log's byte stream, its
// *logical bytes*, is the buffer with each slice's payload spliced in
// before the byte at the slice's offset:
//
//   bytes()   [len type ... vlen][... vlen][... crc]
//   slices()                    ^at 0      ^at 1
//   logical   [len type ... vlen]<payload 0>[... vlen]<payload 1>[... crc]
//
// The logical bytes are exactly the flat encoding, so frame layout, sizes,
// offsets, checksums and log files do not depend on how a buffer holds
// them. Payloads are immutable and already shared by the store, the
// messages and every replica, so a slice costs 24 bytes whatever the
// value's size, and no value byte is copied to log a record. Two places
// materialize the logical bytes: a torn tail at crash time, and the
// FileMedium mirror. Everything else (checksums, scans, replay) walks them
// in place with a LogCursor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "wire/codec.hpp"

namespace str::storage {

/// A payload held by reference: its bytes come before bytes()[at] in the
/// logical stream.
struct PayloadSlice {
  std::size_t at = 0;
  SharedValue value;  ///< never null
};

class LogBuffer {
 public:
  LogBuffer() = default;
  /// Flat bytes with every payload inline and no slices: a log file read
  /// back, or a torn tail.
  explicit LogBuffer(wire::Buffer flat) : bytes_(std::move(flat)) {}

  /// Logical size: the non-payload bytes plus every slice's payload.
  std::size_t size() const { return bytes_.size() + payload_bytes_; }
  bool empty() const { return size() == 0; }

  const wire::Buffer& bytes() const { return bytes_; }
  const std::vector<PayloadSlice>& slices() const { return slices_; }

  /// Heap this buffer holds: the non-payload capacity and the slice table.
  /// Payloads are shared with the store, so, as in
  /// PartitionStore::table_bytes(), they are not counted.
  std::size_t held_bytes() const {
    return bytes_.capacity() + slices_.capacity() * sizeof(PayloadSlice);
  }

  // -- writing (record encoders) ---------------------------------------------

  void reserve(std::size_t bytes, std::size_t slices) {
    bytes_.reserve(bytes);
    slices_.reserve(slices);
  }

  /// Appends `n` non-payload bytes for an encoder to write in place and
  /// returns where they start. An encoder extends by a record's exact
  /// non-payload size, so no byte moves while the record is written.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  /// Splices `value` (non-null) in by reference, before non-payload byte
  /// `at`, which lies at or after every earlier slice's.
  void put_payload(std::size_t at, SharedValue value) {
    payload_bytes_ += value->size();
    slices_.push_back({at, std::move(value)});
  }

  /// Appends `other`'s logical bytes: its non-payload bytes are copied, its
  /// slices moved. No payload byte is copied.
  void append(LogBuffer&& other);

  /// Cuts to the first `size` logical bytes. The cut must not fall inside
  /// a payload (the log cuts at frame boundaries, and a frame holds its
  /// payloads whole).
  void truncate(std::size_t size);

  /// The first `size` logical bytes, payloads copied in.
  wire::Buffer flatten(std::size_t size) const;
  wire::Buffer flatten() const { return flatten(this->size()); }

 private:
  wire::Buffer bytes_;
  std::vector<PayloadSlice> slices_;
  std::size_t payload_bytes_ = 0;  ///< sum of the slices' payload sizes
};

/// Walks a LogBuffer's logical bytes front to back, one contiguous run at
/// a time: a stretch of non-payload bytes or (part of) one payload.
class LogCursor {
 public:
  explicit LogCursor(const LogBuffer& buf) : buf_(&buf) {}
  /// Starts at bytes()[pos], before slice `slice` (every slice before it
  /// lies at or before `pos`).
  LogCursor(const LogBuffer& buf, std::size_t pos, std::size_t slice)
      : buf_(&buf), pos_(pos), slice_(slice) {}

  /// Hands the next `n` logical bytes to `f(const std::uint8_t*,
  /// std::size_t)` in order, one run per call, and moves past them. Empty
  /// payloads where the walk stops count as walked. Requires at least `n`
  /// logical bytes left.
  template <typename F>
  void walk(std::size_t n, F&& f);

  /// Copies the next `n` logical bytes to `out`.
  void read(std::uint8_t* out, std::size_t n) {
    walk(n, [&out](const std::uint8_t* p, std::size_t len) {
      out = std::copy(p, p + len, out);
    });
  }

  /// Offset in bytes() of the next non-payload byte.
  std::size_t pos() const { return pos_; }
  /// Index of the first slice not yet walked past.
  std::size_t slice() const { return slice_; }
  /// True when the walk stopped inside a payload.
  bool in_payload() const { return in_payload_ != 0; }

 private:
  const LogBuffer* buf_;
  std::size_t pos_ = 0;
  std::size_t slice_ = 0;
  std::size_t in_payload_ = 0;  ///< bytes of slice_'s payload walked
};

template <typename F>
void LogCursor::walk(std::size_t n, F&& f) {
  const std::vector<PayloadSlice>& slices = buf_->slices();
  for (;;) {
    if (slice_ < slices.size() && slices[slice_].at == pos_) {
      const Value& v = *slices[slice_].value;
      const std::size_t take = std::min(n, v.size() - in_payload_);
      if (take > 0) {
        f(reinterpret_cast<const std::uint8_t*>(v.data()) + in_payload_, take);
      }
      in_payload_ += take;
      n -= take;
      if (in_payload_ < v.size()) return;  // n ran out inside the payload
      ++slice_;
      in_payload_ = 0;
      continue;
    }
    if (n == 0) return;
    const std::size_t stop =
        slice_ < slices.size() ? slices[slice_].at : buf_->bytes().size();
    const std::size_t take = std::min(n, stop - pos_);
    STR_ASSERT_MSG(take > 0, "LogCursor walked past the end");
    f(buf_->bytes().data() + pos_, take);
    pos_ += take;
    n -= take;
  }
}

}  // namespace str::storage
