// Binary wire-codec primitives: varints, zigzag, length-prefixed frames
// with a per-frame checksum.
//
// This is the bottom layer of the wire subsystem (docs/WIRE.md). It knows
// nothing about protocol messages — only how to put integers and byte
// strings into a buffer and get them back out without ever reading past the
// end of untrusted input. The field codecs that frames and WAL records
// share (wire/fields.hpp), the typed message codec (wire/messages.hpp) and
// the dispatch table (wire/dispatch.hpp) build on it.
//
// Encoding conventions:
//   * unsigned integers  : LEB128 varints (7 bits per byte, LSB first)
//   * signed integers    : zigzag-mapped, then varint
//   * byte strings       : varint length prefix + raw bytes
//   * fixed 32-bit fields: little-endian (frame length and checksum only)
//
// Frame layout (all multi-byte fields little-endian):
//
//   +----------------+------+----------------+-------------------+
//   | u32 rest_len   | type | body ...       | u32 CRC-32C(type  |
//   | (type..cksum)  | (u8) | (per-type)     |      + body)      |
//   +----------------+------+----------------+-------------------+
//
// The length prefix makes the format self-delimiting on a byte stream; the
// checksum rejects corrupted frames before any field is interpreted.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace str::wire {

using Buffer = std::vector<std::uint8_t>;

/// Frame overhead around the body: length prefix + type tag + checksum.
inline constexpr std::size_t kFrameLenBytes = 4;
inline constexpr std::size_t kFrameTypeBytes = 1;
inline constexpr std::size_t kFrameChecksumBytes = 4;
inline constexpr std::size_t kFrameOverhead =
    kFrameLenBytes + kFrameTypeBytes + kFrameChecksumBytes;
/// Smallest well-formed frame: empty body.
inline constexpr std::size_t kMinFrameSize = kFrameOverhead;

/// Encoded size of an unsigned varint (1..10 bytes): one byte per 7
/// significant bits.
inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Zigzag mapping: small-magnitude signed values become small unsigned ones.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32C (Castagnoli) of a byte range: the frame and WAL-record
/// checksum. It detects every error burst of up to 32 bits, so any
/// single-bit flip and any run of flips within 32 bits. Runs the SSE4.2
/// `crc32` instruction where the CPU has it, else crc32c_portable; the
/// kernel is picked once per process (wire/checksum.cpp).
///
/// `prefix` continues a checksum: it is the CRC-32C of the bytes that
/// precede the range (0 for none), so
/// checksum32(b, n, checksum32(a, m)) is the CRC-32C of a[0..m) b[0..n).
std::uint32_t checksum32(const std::uint8_t* data, std::size_t size,
                         std::uint32_t prefix = 0);

/// The table-driven (slicing-by-8) CRC-32C every host can run: the
/// fallback kernel, and the reference the tests hold checksum32 to.
/// `prefix` as for checksum32.
std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t size,
                              std::uint32_t prefix = 0);

/// Encoder into storage the caller has sized exactly (frame_size,
/// body_size): the one implementation of the encoding. Every field is
/// checked against the end of the storage before it is written, so a size
/// that under-counts stops at an always-on assert instead of writing past
/// the storage.
class CursorWriter {
 public:
  CursorWriter(std::uint8_t* at, std::uint8_t* end) : p_(at), end_(end) {}

  void u8(std::uint8_t v) { *take(1) = v; }

  void u32le(std::uint32_t v) {
    std::uint8_t* p = take(4);
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
  }

  void varint(std::uint64_t v) {
    std::uint8_t* p = take(varint_size(v));
    for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v) | 0x80;
    *p = static_cast<std::uint8_t>(v);
  }

  /// `size` raw bytes, without a length prefix.
  void raw(const void* data, std::size_t size) {
    if (size != 0) std::memcpy(take(size), data, size);
  }

  /// varint length prefix + raw bytes.
  void bytes(const void* data, std::size_t size) {
    varint(size);
    raw(data, size);
  }

  void str(const std::string& s) { bytes(s.data(), s.size()); }

  std::uint8_t* position() const { return p_; }
  /// Bytes of the storage not yet written.
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  std::uint8_t* take(std::size_t n) {
    STR_ASSERT_MSG(n <= remaining(), "encoder overran its sized storage");
    std::uint8_t* at = p_;
    p_ += n;
    return at;
  }

  std::uint8_t* p_;
  std::uint8_t* end_;
};

/// Append-only encoder over a caller-owned Buffer: grows it by each
/// field's size and writes the field with a CursorWriter.
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) { grow(1).u8(v); }
  void u32le(std::uint32_t v) { grow(4).u32le(v); }
  void varint(std::uint64_t v) { grow(varint_size(v)).varint(v); }
  void zigzag(std::int64_t v) { varint(zigzag_encode(v)); }
  /// varint length prefix + raw bytes.
  void bytes(const void* data, std::size_t size) {
    grow(varint_size(size) + size).bytes(data, size);
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }

 private:
  CursorWriter grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return CursorWriter(out_.data() + at, out_.data() + out_.size());
  }

  Buffer& out_;
};

/// Bounds-checked decoder over untrusted bytes. Every accessor returns a
/// neutral value and latches `ok() == false` on underflow or malformed
/// input; it NEVER reads outside [data, data + size). Callers check ok()
/// once at the end (reads after a failure are harmless no-ops).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  /// Latch failure: what a field check calls on a well-formed but
  /// out-of-range value.
  void fail() {
    ok_ = false;
    p_ = end_;
  }

  std::uint8_t u8() {
    if (remaining() < 1) return fail_u8();
    return *p_++;
  }

  std::uint32_t u32le() {
    if (remaining() < 4) {
      fail_u8();
      return 0;
    }
    std::uint32_t v = static_cast<std::uint32_t>(p_[0]) |
                      (static_cast<std::uint32_t>(p_[1]) << 8) |
                      (static_cast<std::uint32_t>(p_[2]) << 16) |
                      (static_cast<std::uint32_t>(p_[3]) << 24);
    p_ += 4;
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (std::size_t shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return fail_u8();
      const std::uint8_t byte = *p_++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The 10th byte of a u64 varint carries one significant bit; a
        // larger final byte would encode bits beyond 64 (overlong/overflow).
        if (shift == 63 && byte > 1) return fail_u8();
        return v;
      }
    }
    return fail_u8();  // continuation bit set past 10 bytes
  }

  std::int64_t zigzag() { return zigzag_decode(varint()); }

  /// varint length prefix + raw bytes, as a view into the input (valid as
  /// long as the input is); rejects lengths past the buffer end, so a
  /// corrupted length can never reach outside it.
  bool view(std::string_view& out) {
    const std::uint64_t len = varint();
    return ok_ && raw(len, out);
  }

  /// The next `len` bytes as a view into the input, without a length
  /// prefix; fails (and latches) when fewer remain.
  bool raw(std::uint64_t len, std::string_view& out) {
    if (len > remaining()) {
      fail_u8();
      return false;
    }
    out = std::string_view(reinterpret_cast<const char*>(p_),
                           static_cast<std::size_t>(len));
    p_ += len;
    return true;
  }

  /// view() copied into `out`: the length is checked BEFORE allocating, so
  /// a corrupted length can never trigger a huge reservation.
  bool str(std::string& out) {
    std::string_view v;
    if (!view(v)) return false;
    out.assign(v);
    return true;
  }

 private:
  std::uint8_t fail_u8() {
    fail();
    return 0;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace str::wire
