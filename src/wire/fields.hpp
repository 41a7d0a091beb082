// Field codecs shared by wire frames and WAL records (docs/WIRE.md,
// docs/DURABILITY.md).
//
// A frame body or a log record is described once, as a field list: a
// function that names its fields in layout order through a visitor `v`,
//
//   void fields(auto& v, Is<protocol::AbortMessage> auto& m) {
//     v.tx(m.tx);
//     v.num(m.partition);
//   }
//
// and every pass over the format runs that one list:
//
//   * Encoder<SizeSink> counts the bytes it writes, the exact size a frame
//     or a record is allocated at;
//   * Encoder<Sink> writes them in place. The sinks differ only in what
//     they do with a value's payload: a frame's sink copies it in, a
//     LogBuffer's holds it as a slice (storage/log_buffer.hpp);
//   * Decoder<Source> reads them back from untrusted bytes and rejects
//     anything the encoder would not write: a varint past its field's
//     width, a bool other than 0 or 1, an enum past its last value, a
//     count above what the remaining bytes could hold, checked before
//     anything is reserved for it. A failure latches in the source; later
//     fields read as zero and the caller checks ok() once. The sources
//     differ only in where a payload's bytes come from: a view of the
//     frame, or a LogBuffer's slice.
//
// Field types:
//
//   num(x)            unsigned integer: a varint, range-checked to x's width
//   flag(b)           bool: one byte, 0 or 1
//   enumerated(e, l)  one-byte enum whose greatest value is l
//   tx(id)            TxId: node, then seq
//   value(v)          optional value: presence byte, then length + bytes
//   updates(list)     update list: count, then (key, value) pairs
//   list(xs, item)    count, then each element's own field list `item`
//   trailing(x)       a last varint, present only when nonzero (frames)
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "wire/codec.hpp"

namespace str::wire {

/// A field list's parameter: one of `Ms`, const when encoding.
template <class T, class... Ms>
concept Is = (std::same_as<std::remove_const_t<T>, Ms> || ...);

// -- sinks --------------------------------------------------------------------

/// The sizing pass's sink: counts every byte a field list writes. The
/// payload counts are the part a LogBuffer holds by reference, one slice
/// per payload.
struct SizeSink {
  std::size_t bytes = 0;
  std::size_t payload_bytes = 0;
  std::size_t payloads = 0;

  void u8(std::uint8_t) { ++bytes; }
  void varint(std::uint64_t v) { bytes += varint_size(v); }
  void payload(const SharedValue& v) {
    bytes += v->size();
    payload_bytes += v->size();
    ++payloads;
  }
};

/// A frame's sink: every byte in place, payloads copied in.
class FrameSink : public CursorWriter {
 public:
  using CursorWriter::CursorWriter;
  void payload(const SharedValue& v) { raw(v->data(), v->size()); }
};

/// Runs field lists into a sink: a SizeSink to size them, a frame's or a
/// log's sink to write them.
template <class Sink>
class Encoder {
 public:
  /// `counted` is, for a writing pass, what the sizing pass's counted()
  /// returned (see updates(ForEach)).
  explicit Encoder(Sink& sink, std::size_t counted = 0)
      : sink_(sink), counted_(counted) {}

  template <std::unsigned_integral T>
  void num(T v) {
    sink_.varint(v);
  }
  void flag(bool b) { sink_.u8(b ? 1 : 0); }
  template <class E>
  void enumerated(E e, E /*last*/) {
    sink_.u8(static_cast<std::uint8_t>(e));
  }
  void tx(const TxId& id) {
    num(id.node);
    num(id.seq);
  }

  void value(const SharedValue& v) {
    flag(v != nullptr);
    if (v == nullptr) return;
    num(v->size());
    sink_.payload(v);
  }
  /// The value `writer` wrote to `key`: a frame's decoder resolves it by
  /// that identity; the bytes are value()'s.
  void value(const SharedValue& v, const TxId& /*writer*/, Key /*key*/) {
    value(v);
  }

  void updates(const UpdateList& list) {
    num(list.size());
    for (const auto& [key, v] : list) pair(key, v);
  }
  /// The list `tx` wrote to partition `pid`: a frame's decoder resolves it
  /// by that identity. A null list is an empty one.
  void updates(const SharedUpdates& list, const TxId& /*tx*/,
               PartitionId /*pid*/) {
    if (list != nullptr) {
      updates(*list);
    } else {
      num(std::size_t{0});
    }
  }
  /// Pairs visited where they live: `each(fn)` calls fn(key, value) for
  /// every pair, in the same order on every call. Its count is known only
  /// after a walk, so the sizing pass counts it (counted()) and the
  /// writing pass is handed that count: two walks, not three.
  template <class ForEach>
    requires std::invocable<const ForEach&, void (*)(Key, const SharedValue&)>
  void updates(const ForEach& each) {
    if constexpr (std::is_same_v<Sink, SizeSink>) {
      counted_ = 0;
      each([this](Key key, const SharedValue& v) {
        ++counted_;
        pair(key, v);
      });
      num(counted_);
    } else {
      num(counted_);
      each([this](Key key, const SharedValue& v) { pair(key, v); });
    }
  }

  template <class T, class Item>
  void list(const std::vector<T>& items, const Item& item) {
    num(items.size());
    for (const T& x : items) item(*this, x);
  }

  void trailing(std::uint64_t x) {
    if (x != 0) num(x);
  }

  /// The length of the last list visited where it lives.
  std::size_t counted() const { return counted_; }

 private:
  void pair(Key key, const SharedValue& v) {
    num(key);
    value(v);
  }

  Sink& sink_;
  std::size_t counted_;
};

// -- decoding -----------------------------------------------------------------

/// A value's bytes as a source yields them: a payload the source already
/// holds (a LogBuffer's slice), or else a view of its input.
struct PayloadView {
  std::string_view bytes;
  const SharedValue* held = nullptr;
};

/// The payload of `key` in `list` (which may be null) when its bytes are
/// `bytes`, else a fresh copy of them.
inline SharedValue payload_for(const UpdateList* list, Key key,
                               std::string_view bytes) {
  if (list != nullptr) {
    for (const auto& [k, value] : *list) {
      if (k == key && value != nullptr && *value == bytes) return value;
    }
  }
  return std::make_shared<const Value>(bytes);
}

/// Runs field lists out of a Source: Reader's u8, varint, ok, fail and
/// remaining (the bytes left that are not payloads held by reference),
/// plus payload(len, PayloadView&), which yields a value's `len` bytes.
template <class Source>
class Decoder {
 public:
  explicit Decoder(Source& src) : src_(src) {}

  bool ok() const { return src_.ok(); }
  Source& source() { return src_; }

  template <std::unsigned_integral T>
  void num(T& out) {
    const std::uint64_t v = src_.varint();
    if (v > std::numeric_limits<T>::max()) return src_.fail();
    out = static_cast<T>(v);
  }
  void flag(bool& out) {
    const std::uint8_t v = src_.u8();
    if (v > 1) return src_.fail();
    out = v != 0;
  }
  template <class E>
  void enumerated(E& out, E last) {
    const std::uint8_t v = src_.u8();
    if (v > static_cast<std::uint8_t>(last)) return src_.fail();
    out = static_cast<E>(v);
  }
  void tx(TxId& id) {
    num(id.node);
    num(id.seq);
  }

  /// An optional value's presence and, when present, its bytes, left for
  /// the caller to resolve. False once anything failed.
  bool payload(bool& present, PayloadView& out) {
    flag(present);
    if (!ok() || !present) return ok();
    std::uint64_t len = 0;
    num(len);
    return ok() && src_.payload(len, out);
  }

  /// A value with no write identity (a log's): the payload the source
  /// holds, else a fresh copy.
  void value(SharedValue& out) { resolved_value(nullptr, 0, out); }

  void updates(UpdateList& out) { pairs(count(kMinPairBytes), nullptr, out); }

  template <class T, class Item>
  void list(std::vector<T>& out, const Item& item) {
    const std::uint64_t n = count(1);
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ok(); ++i) {
      item(*this, out.emplace_back());
    }
  }

 protected:
  /// An update pair takes at least a key byte and a presence byte.
  static constexpr std::size_t kMinPairBytes = 2;

  /// A count of elements of at least `min_bytes` each, rejected when the
  /// bytes left cannot hold them: checked before anything is reserved, so
  /// a forged count never reserves more than the input's size allows.
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t n = src_.varint();
    if (n > src_.remaining() / min_bytes) {
      src_.fail();
      return 0;
    }
    return n;
  }

  /// `n` (key, value) pairs appended to `out`; a value whose bytes equal
  /// its key's payload in `recorded` (which may be null) shares it.
  void pairs(std::uint64_t n, const UpdateList* recorded, UpdateList& out) {
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ok(); ++i) {
      Key key = 0;
      num(key);
      SharedValue v;
      resolved_value(recorded, key, v);
      out.emplace_back(key, std::move(v));
    }
  }

 private:
  void resolved_value(const UpdateList* recorded, Key key, SharedValue& out) {
    bool present = false;
    PayloadView bytes;
    if (!payload(present, bytes) || !present) return;
    out = bytes.held != nullptr ? *bytes.held
                                : payload_for(recorded, key, bytes.bytes);
  }

  Source& src_;
};

}  // namespace str::wire
