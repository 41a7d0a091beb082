// Typed wire codec for every protocol message (docs/WIRE.md).
//
// One stable type tag and one encode/decode pair per struct in
// protocol/messages.hpp. `seal_frame` (and `encode_frame`, its plain-buffer
// twin) writes a message in place into a checksummed, length-prefixed frame
// of its exact size (wire/codec.hpp, wire/frame.hpp); `decode_frame`
// verifies and opens one, rejecting — never crashing on — truncated,
// corrupted, or trailing-garbage input, and resolves update lists and read
// values through a PayloadTable (wire/payload_table.hpp) so that a receiver
// holds the sender's list and one write keeps one payload. `frame_size`
// predicts the exact encoded size without building the buffer, which is
// what the closure-mode transport feeds the network's byte accounting so
// that both transport modes report identical traffic.
//
// Versioning rules (see docs/WIRE.md "Versioning"): tags are append-only
// and never reused; fields are encoded in declaration order and new fields
// are appended, never inserted.
#pragma once

#include <cstdint>
#include <variant>

#include "common/assert.hpp"
#include "protocol/messages.hpp"
#include "wire/codec.hpp"
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

/// Compile-time tag lookup: type_tag<protocol::ReadRequest>() etc.
template <class M>
constexpr MessageType type_tag();

template <>
constexpr MessageType type_tag<protocol::ReadRequest>() {
  return MessageType::kReadRequest;
}
template <>
constexpr MessageType type_tag<protocol::ReadReply>() {
  return MessageType::kReadReply;
}
template <>
constexpr MessageType type_tag<protocol::PrepareRequest>() {
  return MessageType::kPrepareRequest;
}
template <>
constexpr MessageType type_tag<protocol::PrepareReply>() {
  return MessageType::kPrepareReply;
}
template <>
constexpr MessageType type_tag<protocol::ReplicateRequest>() {
  return MessageType::kReplicateRequest;
}
template <>
constexpr MessageType type_tag<protocol::CommitMessage>() {
  return MessageType::kCommit;
}
template <>
constexpr MessageType type_tag<protocol::AbortMessage>() {
  return MessageType::kAbort;
}
template <>
constexpr MessageType type_tag<protocol::DecisionRequest>() {
  return MessageType::kDecisionRequest;
}
template <>
constexpr MessageType type_tag<protocol::DecisionReply>() {
  return MessageType::kDecisionReply;
}
template <>
constexpr MessageType type_tag<protocol::DecisionReplicate>() {
  return MessageType::kDecisionReplicate;
}
template <>
constexpr MessageType type_tag<protocol::DecisionReplicateAck>() {
  return MessageType::kDecisionReplicateAck;
}

// -- per-type body codec ------------------------------------------------------
// encode_body writes the message fields; decode_body parses them and
// returns false on malformed input (bounds, enum ranges). The three types
// that carry values take the PayloadTable their values resolve through.
// body_size returns exactly what encode_body would write.

void encode_body(CursorWriter& w, const protocol::ReadRequest& m);
void encode_body(CursorWriter& w, const protocol::ReadReply& m);
void encode_body(CursorWriter& w, const protocol::PrepareRequest& m);
void encode_body(CursorWriter& w, const protocol::PrepareReply& m);
void encode_body(CursorWriter& w, const protocol::ReplicateRequest& m);
void encode_body(CursorWriter& w, const protocol::CommitMessage& m);
void encode_body(CursorWriter& w, const protocol::AbortMessage& m);
void encode_body(CursorWriter& w, const protocol::DecisionRequest& m);
void encode_body(CursorWriter& w, const protocol::DecisionReply& m);
void encode_body(CursorWriter& w, const protocol::DecisionReplicate& m);
void encode_body(CursorWriter& w, const protocol::DecisionReplicateAck& m);

bool decode_body(Reader& r, protocol::ReadRequest& m);
bool decode_body(Reader& r, protocol::ReadReply& m, PayloadTable& payloads);
bool decode_body(Reader& r, protocol::PrepareRequest& m,
                 PayloadTable& payloads);
bool decode_body(Reader& r, protocol::PrepareReply& m);
bool decode_body(Reader& r, protocol::ReplicateRequest& m,
                 PayloadTable& payloads);
bool decode_body(Reader& r, protocol::CommitMessage& m);
bool decode_body(Reader& r, protocol::AbortMessage& m);
bool decode_body(Reader& r, protocol::DecisionRequest& m);
bool decode_body(Reader& r, protocol::DecisionReply& m);
bool decode_body(Reader& r, protocol::DecisionReplicate& m);
bool decode_body(Reader& r, protocol::DecisionReplicateAck& m);

std::size_t body_size(const protocol::ReadRequest& m);
std::size_t body_size(const protocol::ReadReply& m);
std::size_t body_size(const protocol::PrepareRequest& m);
std::size_t body_size(const protocol::PrepareReply& m);
std::size_t body_size(const protocol::ReplicateRequest& m);
std::size_t body_size(const protocol::CommitMessage& m);
std::size_t body_size(const protocol::AbortMessage& m);
std::size_t body_size(const protocol::DecisionRequest& m);
std::size_t body_size(const protocol::DecisionReply& m);
std::size_t body_size(const protocol::DecisionReplicate& m);
std::size_t body_size(const protocol::DecisionReplicateAck& m);

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
  CursorWriter w(out, out + size);
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

/// A decoded message of any type (monostate = nothing decoded).
using AnyMessage =
    std::variant<std::monostate, protocol::ReadRequest, protocol::ReadReply,
                 protocol::PrepareRequest, protocol::PrepareReply,
                 protocol::ReplicateRequest, protocol::CommitMessage,
                 protocol::AbortMessage, protocol::DecisionRequest,
                 protocol::DecisionReply, protocol::DecisionReplicate,
                 protocol::DecisionReplicateAck>;

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
