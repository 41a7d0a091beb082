// Typed wire codec for every protocol message (docs/WIRE.md).
//
// One stable type tag (its place in AnyMessage) and one field list per
// struct in protocol/messages.hpp; sizing, encoding and decoding all run
// that list (wire/fields.hpp). `seal_frame` (and `encode_frame`, its
// plain-buffer twin) writes a message in place into a checksummed,
// length-prefixed frame of its exact size (wire/codec.hpp,
// wire/frame.hpp); `decode_frame`
// verifies and opens one, rejecting — never crashing on — truncated,
// corrupted, or trailing-garbage input, and resolves update lists and read
// values through a PayloadTable (wire/payload_table.hpp) so that a receiver
// holds the sender's list and one write keeps one payload. `frame_size`
// predicts the exact encoded size without building the buffer, which is
// what the closure-mode transport feeds the network's byte accounting so
// that both transport modes report identical traffic.
//
// Versioning rules (see docs/WIRE.md "Versioning"): tags are append-only
// and never reused; a field list is the layout, and new fields are appended
// to it, never inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <variant>

#include "common/assert.hpp"
#include "protocol/messages.hpp"
#include "wire/codec.hpp"
#include "wire/fields.hpp"
#include "wire/frame.hpp"
#include "wire/payload_table.hpp"

namespace str::wire {

/// Stable message-type tags. Append new types at the end; never renumber
/// or reuse a tag (a decoder must be able to reject frames from a newer
/// peer instead of misinterpreting them).
enum class MessageType : std::uint8_t {
  kReadRequest = 1,
  kReadReply = 2,
  kPrepareRequest = 3,
  kPrepareReply = 4,
  kReplicateRequest = 5,
  kCommit = 6,
  kAbort = 7,
  kDecisionRequest = 8,
  kDecisionReply = 9,
  kDecisionReplicate = 10,
  kDecisionReplicateAck = 11,
};

inline constexpr std::uint8_t kMinMessageType = 1;
inline constexpr std::uint8_t kMaxMessageType = 11;
inline constexpr std::size_t kNumMessageTypes = kMaxMessageType + 1;

/// snake_case name for metrics / logs ("read_request", ...).
const char* to_string(MessageType t);

/// Why a frame was rejected. Anything but kOk means "not delivered".
enum class DecodeStatus : std::uint8_t {
  kOk,
  kTooShort,      ///< shorter than the fixed frame overhead
  kBadLength,     ///< length prefix disagrees with the datagram size
  kBadChecksum,   ///< checksum mismatch (bit corruption)
  kBadType,       ///< unknown message-type tag
  kBadBody,       ///< body malformed: underflow, bad enum, trailing bytes
};

const char* to_string(DecodeStatus s);

/// A decoded message of any type (monostate = nothing decoded). The order
/// of the alternatives is the tag table: alternative i has tag i.
using AnyMessage =
    std::variant<std::monostate, protocol::ReadRequest, protocol::ReadReply,
                 protocol::PrepareRequest, protocol::PrepareReply,
                 protocol::ReplicateRequest, protocol::CommitMessage,
                 protocol::AbortMessage, protocol::DecisionRequest,
                 protocol::DecisionReply, protocol::DecisionReplicate,
                 protocol::DecisionReplicateAck>;

/// Compile-time tag lookup: type_tag<protocol::ReadRequest>() etc., the
/// message's alternative index in AnyMessage.
template <class M, std::size_t I = 1>
constexpr MessageType type_tag() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, AnyMessage>, M>) {
    return static_cast<MessageType>(I);
  } else {
    return type_tag<M, I + 1>();
  }
}

// The tags are the wire format: reordering AnyMessage must not renumber one.
static_assert(
    type_tag<protocol::ReadRequest>() == MessageType::kReadRequest &&
    type_tag<protocol::ReadReply>() == MessageType::kReadReply &&
    type_tag<protocol::PrepareRequest>() == MessageType::kPrepareRequest &&
    type_tag<protocol::PrepareReply>() == MessageType::kPrepareReply &&
    type_tag<protocol::ReplicateRequest>() == MessageType::kReplicateRequest &&
    type_tag<protocol::CommitMessage>() == MessageType::kCommit &&
    type_tag<protocol::AbortMessage>() == MessageType::kAbort &&
    type_tag<protocol::DecisionRequest>() == MessageType::kDecisionRequest &&
    type_tag<protocol::DecisionReply>() == MessageType::kDecisionReply &&
    type_tag<protocol::DecisionReplicate>() ==
        MessageType::kDecisionReplicate &&
    type_tag<protocol::DecisionReplicateAck>() ==
        MessageType::kDecisionReplicateAck &&
    std::variant_size_v<AnyMessage> == kNumMessageTypes);

// -- field lists --------------------------------------------------------------
// Each message's body fields in wire order: the one place a layout is
// defined. Sizing, encoding and decoding all run these (wire/fields.hpp).
// The trace context is not listed: body() appends it to every message.

void fields(auto& v, Is<protocol::ReadRequest> auto& m) {
  v.tx(m.reader);
  v.num(m.reader_node);
  v.num(m.req_id);
  v.num(m.key);
  v.num(m.rs);
}

void fields(auto& v, Is<protocol::ReadReply> auto& m) {
  v.tx(m.reader);
  v.num(m.req_id);
  v.num(m.key);
  v.flag(m.found);
  // The write's identity: a decoder resolves the value once `writer`,
  // which follows it, has been read.
  v.value(m.value, m.writer, m.key);
  v.tx(m.writer);
  v.num(m.version_ts);
}

/// A replicate carries its prepare's fields.
void fields(auto& v,
            Is<protocol::PrepareRequest, protocol::ReplicateRequest> auto& m) {
  v.tx(m.tx);
  v.num(m.coordinator);
  v.num(m.partition);
  v.num(m.rs);
  v.updates(m.updates, m.tx, m.partition);
}

void fields(auto& v, Is<protocol::PrepareReply> auto& m) {
  v.tx(m.tx);
  v.num(m.partition);
  v.num(m.from);
  v.flag(m.prepared);
  v.num(m.proposed_ts);
}

void fields(auto& v, Is<protocol::CommitMessage> auto& m) {
  v.tx(m.tx);
  v.num(m.partition);
  v.num(m.commit_ts);
}

void fields(auto& v, Is<protocol::AbortMessage> auto& m) {
  v.tx(m.tx);
  v.num(m.partition);
}

void fields(auto& v, Is<protocol::DecisionRequest> auto& m) {
  v.tx(m.tx);
  v.num(m.partition);
  v.num(m.from);
}

void fields(auto& v, Is<protocol::DecisionReply> auto& m) {
  v.tx(m.tx);
  v.num(m.partition);
  v.enumerated(m.decision, protocol::TxDecision::Aborted);
  v.num(m.commit_ts);
  v.num(m.from);
}

void fields(auto& v, Is<protocol::DecisionReplicate> auto& m) {
  v.tx(m.tx);
  v.num(m.origin);
  v.num(m.commit_ts);
  v.num(m.decided_at);
}

void fields(auto& v, Is<protocol::DecisionReplicateAck> auto& m) {
  v.tx(m.tx);
  v.num(m.from);
}

/// A frame body: the message's fields, then its optional trace context,
/// always last and present only when nonzero, so an untraced frame is
/// byte-identical to one that predates the field (docs/WIRE.md, "Trace
/// context").
template <class V, class M>
void body(V& v, M& m) {
  fields(v, m);
  v.trailing(m.tspan);
}

/// Exactly what encode_body(w, m) writes. Kept out of line: inlined into
/// encode_frame, its bounded result let GCC 12 expand the buffer's
/// zero-fill as `rep stos`, which made a small frame's encode 10-14 ns
/// slower than the memset call it makes otherwise (bench_wire_codec).
template <class M>
[[gnu::noinline]] std::size_t body_size(const M& m) {
  SizeSink size;
  Encoder<SizeSink> sizer(size);
  body(sizer, m);
  return size.bytes;
}

/// Write `m`'s body at `w`.
template <class M>
void encode_body(FrameSink& w, const M& m) {
  Encoder<FrameSink> encoder(w);
  body(encoder, m);
}

// -- frames -------------------------------------------------------------------

/// Exact size encode_frame(m) would produce, without building it. This is
/// the number both transport modes charge to the network byte counters.
template <class M>
std::size_t frame_size(const M& m) {
  return kFrameOverhead + body_size(m);
}

/// Write the complete frame of `m` — length prefix, tag, body, checksum —
/// at `out`, which holds exactly `size` == frame_size(m) bytes.
/// A body that leaves other than the checksum's bytes unwritten stops at an
/// always-on assert, as one that would overrun `size` does.
template <class M>
void write_frame(std::uint8_t* out, std::size_t size, const M& m) {
  FrameSink w(out, out + size);
  w.u32le(static_cast<std::uint32_t>(size - kFrameLenBytes));
  w.u8(static_cast<std::uint8_t>(type_tag<M>()));
  encode_body(w, m);
  STR_ASSERT_MSG(w.remaining() == kFrameChecksumBytes,
                 "frame body size mismatch");
  w.u32le(checksum32(out + kFrameLenBytes,
                     size - kFrameLenBytes - kFrameChecksumBytes));
}

/// Seal `m` into a complete frame (length prefix, tag, body, checksum).
template <class M>
Buffer encode_frame(const M& m) {
  Buffer out(frame_size(m));
  write_frame(out.data(), out.size(), m);
  return out;
}

/// encode_frame as a shared, immutable Frame (wire/frame.hpp): what a send
/// hands the network, and what every leg of a fan-out holds.
template <class M>
Frame seal_frame(const M& m) {
  const std::size_t size = frame_size(m);
  return Frame::build(size,
                      [&](std::uint8_t* out) { write_frame(out, size, m); });
}

/// Verify and open one datagram-framed message, resolving its values
/// through `payloads`. On any status but kOk, `out` holds std::monostate.
/// Never reads out of bounds and never throws — this is the function the
/// fuzz smoke hammers (tests/wire).
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out, PayloadTable& payloads);

/// One-off decode outside any cluster: the same path through a private,
/// empty table, so every value is freshly allocated.
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out);

}  // namespace str::wire
