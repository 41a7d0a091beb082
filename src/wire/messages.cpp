#include "wire/messages.hpp"

#include <array>
#include <string_view>
#include <utility>
#include <variant>

#include "protocol/partition_map.hpp"

namespace str::wire {

namespace {

/// A frame body as a decoder's source: a value's bytes are a view of it.
class FrameSource : public Reader {
 public:
  using Reader::Reader;
  bool payload(std::uint64_t len, PayloadView& out) {
    return raw(len, out.bytes);
  }
};

/// Decodes a frame body, resolving its values through a PayloadTable so
/// that a receiver holds the sender's update list and one write keeps one
/// payload (wire/payload_table.hpp).
class FrameDecoder : public Decoder<FrameSource> {
 public:
  FrameDecoder(FrameSource& src, PayloadTable& payloads)
      : Decoder(src), payloads_(payloads) {}

  /// The value `writer` wrote to `key`. In ReadReply `writer` follows the
  /// value, so its bytes are kept as a view and resolved by finish().
  void value(SharedValue& out, const TxId& writer, const Key& key) {
    bool present = false;
    PayloadView bytes;
    if (!payload(present, bytes) || !present) return;
    deferred_ = {&out, &writer, &key, bytes.bytes};
  }

  /// The update list `tx` wrote to `pid`. When the frame's updates equal
  /// the list recorded for (tx, pid), that list itself; otherwise a fresh
  /// list whose values share the recorded list's where the bytes match,
  /// recorded in turn when no live list was.
  void updates(SharedUpdates& out, const TxId& tx, PartitionId pid) {
    const std::uint64_t n = count(kMinPairBytes);
    if (!ok()) return;
    SharedUpdates recorded = payloads_.find(tx, pid);
    if (recorded != nullptr && recorded->size() == n) {
      FrameSource probe = source();
      if (same_pairs(probe, *recorded)) {
        source() = probe;
        out = std::move(recorded);
        return;
      }
    }
    auto list = std::make_shared<UpdateList>();
    pairs(n, recorded.get(), *list);
    if (!ok()) return;
    out = std::move(list);
    if (recorded == nullptr) payloads_.record(tx, pid, out);
  }

  /// A trailing varint is read only when bytes remain, which is
  /// unambiguous because every earlier field is self-delimiting; an
  /// explicit zero is non-canonical.
  void trailing(std::uint64_t& out) {
    out = 0;
    if (source().remaining() == 0) return;
    num(out);
    if (out == 0) source().fail();
  }

  /// Whether the body parsed whole, every byte consumed; then resolves a
  /// value left for it by (writer, the key's partition).
  bool finish() {
    if (!ok() || source().remaining() != 0) return false;
    if (deferred_.out != nullptr) {
      const SharedUpdates writes = payloads_.find(
          *deferred_.writer,
          protocol::PartitionMap::partition_of(*deferred_.key));
      *deferred_.out = payload_for(writes.get(), *deferred_.key,
                                   deferred_.bytes);
    }
    return true;
  }

 private:
  /// Whether the `list.size()` pairs at `src` carry exactly `list`'s keys
  /// and payload bytes, in order. Advances `src`.
  static bool same_pairs(FrameSource& src, const UpdateList& list) {
    Decoder<FrameSource> d(src);
    for (const auto& [key, value] : list) {
      Key k = 0;
      bool present = false;
      PayloadView bytes;
      d.num(k);
      if (!d.payload(present, bytes) || k != key ||
          present != (value != nullptr) || (present && *value != bytes.bytes)) {
        return false;
      }
    }
    return true;
  }

  struct Deferred {
    SharedValue* out = nullptr;
    const TxId* writer = nullptr;
    const Key* key = nullptr;
    std::string_view bytes;
  };

  PayloadTable& payloads_;
  Deferred deferred_;
};

template <class M>
DecodeStatus decode_as(const std::uint8_t* bytes, std::size_t len,
                       PayloadTable& payloads, AnyMessage& out) {
  FrameSource src(bytes, len);
  FrameDecoder decoder(src, payloads);
  M m;
  body(decoder, m);
  if (!decoder.finish()) return DecodeStatus::kBadBody;
  out = std::move(m);
  return DecodeStatus::kOk;
}

using DecodeFn = DecodeStatus (*)(const std::uint8_t*, std::size_t,
                                  PayloadTable&, AnyMessage&);

/// decode_as of every message, indexed by tag - kMinMessageType.
template <std::size_t... I>
constexpr auto decoders(std::index_sequence<I...>) {
  return std::array<DecodeFn, sizeof...(I)>{&decode_as<
      std::variant_alternative_t<I + kMinMessageType, AnyMessage>>...};
}

constexpr auto kDecoders = decoders(
    std::make_index_sequence<kMaxMessageType - kMinMessageType + 1>());

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kReadRequest: return "read_request";
    case MessageType::kReadReply: return "read_reply";
    case MessageType::kPrepareRequest: return "prepare_request";
    case MessageType::kPrepareReply: return "prepare_reply";
    case MessageType::kReplicateRequest: return "replicate_request";
    case MessageType::kCommit: return "commit";
    case MessageType::kAbort: return "abort";
    case MessageType::kDecisionRequest: return "decision_request";
    case MessageType::kDecisionReply: return "decision_reply";
    case MessageType::kDecisionReplicate: return "decision_replicate";
    case MessageType::kDecisionReplicateAck: return "decision_replicate_ack";
  }
  return "unknown";
}

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTooShort: return "too_short";
    case DecodeStatus::kBadLength: return "bad_length";
    case DecodeStatus::kBadChecksum: return "bad_checksum";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kBadBody: return "bad_body";
  }
  return "unknown";
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out, PayloadTable& payloads) {
  out = std::monostate{};
  if (size < kMinFrameSize) return DecodeStatus::kTooShort;
  Reader hdr(data, size);
  const std::uint32_t rest_len = hdr.u32le();
  if (rest_len != size - kFrameLenBytes) return DecodeStatus::kBadLength;
  // Checksum covers type + body; the stored value sits in the last 4 bytes.
  const std::size_t covered = size - kFrameLenBytes - kFrameChecksumBytes;
  Reader tail(data + size - kFrameChecksumBytes, kFrameChecksumBytes);
  const std::uint32_t stored = tail.u32le();
  if (checksum32(data + kFrameLenBytes, covered) != stored) {
    return DecodeStatus::kBadChecksum;
  }
  const std::uint8_t type = data[kFrameLenBytes];
  if (type < kMinMessageType || type > kMaxMessageType) {
    return DecodeStatus::kBadType;
  }
  return kDecoders[type - kMinMessageType](
      data + kFrameLenBytes + kFrameTypeBytes, covered - kFrameTypeBytes,
      payloads, out);
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out) {
  PayloadTable payloads;
  return decode_frame(data, size, out, payloads);
}

}  // namespace str::wire
