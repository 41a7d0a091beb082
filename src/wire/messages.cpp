#include "wire/messages.hpp"

#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "protocol/partition_map.hpp"

namespace str::wire {

namespace {

using protocol::UpdateList;

// -- shared field helpers -----------------------------------------------------

void put_txid(CursorWriter& w, const TxId& id) {
  w.varint(id.node);
  w.varint(id.seq);
}

bool get_txid(Reader& r, TxId& id) {
  const std::uint64_t node = r.varint();
  id.seq = r.varint();
  if (!r.ok() || node > std::numeric_limits<NodeId>::max()) return false;
  id.node = static_cast<NodeId>(node);
  return true;
}

std::size_t txid_size(const TxId& id) {
  return varint_size(id.node) + varint_size(id.seq);
}

bool get_u32(Reader& r, std::uint32_t& out) {
  const std::uint64_t v = r.varint();
  if (!r.ok() || v > std::numeric_limits<std::uint32_t>::max()) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// A strict bool on the wire: exactly 0 or 1, anything else is malformed.
bool get_bool(Reader& r, bool& out) {
  const std::uint8_t v = r.u8();
  if (!r.ok() || v > 1) return false;
  out = (v != 0);
  return true;
}

void put_value(CursorWriter& w, const SharedValue& v) {
  w.u8(v ? 1 : 0);
  if (v) w.str(*v);
}

/// An optional value as a view into the frame: `present` is false for an
/// absent one. Resolving the bytes to a payload is the caller's step.
bool get_value_view(Reader& r, bool& present, std::string_view& bytes) {
  if (!get_bool(r, present)) return false;
  return !present || r.view(bytes);
}

std::size_t value_size(const SharedValue& v) {
  if (!v) return 1;
  return 1 + varint_size(v->size()) + v->size();
}

void put_updates(CursorWriter& w, const protocol::SharedUpdates& ups) {
  const std::size_t n = ups ? ups->size() : 0;
  w.varint(n);
  if (!ups) return;
  for (const auto& [key, value] : *ups) {
    w.varint(key);
    put_value(w, value);
  }
}

/// The payload of `key` in `list` (which may be null) when its bytes are
/// `bytes`, else a fresh copy of them.
SharedValue payload_for(const UpdateList* list, Key key,
                        std::string_view bytes) {
  if (list != nullptr) {
    for (const auto& [k, value] : *list) {
      if (k == key && value != nullptr && *value == bytes) return value;
    }
  }
  return std::make_shared<const Value>(bytes);
}

/// Whether the `list.size()` updates at `r` carry exactly `list`'s keys
/// and payload bytes, in order. Advances `r` (a copy the caller keeps or
/// drops).
bool updates_equal(Reader& r, const UpdateList& list) {
  for (const auto& [key, value] : list) {
    const Key k = r.varint();
    bool present = false;
    std::string_view bytes;
    if (!r.ok() || k != key || !get_value_view(r, present, bytes) ||
        present != (value != nullptr) || (present && *value != bytes)) {
      return false;
    }
  }
  return true;
}

/// The update list `tx` wrote to `pid`. When the frame's updates equal the
/// list recorded for (tx, pid), that list itself; otherwise a fresh list
/// whose values share the recorded list's where the bytes match, recorded
/// in turn when no live list was.
bool get_updates(Reader& r, const TxId& tx, PartitionId pid,
                 PayloadTable& payloads, protocol::SharedUpdates& out) {
  const std::uint64_t n = r.varint();
  // Each update needs at least 2 bytes (key varint + presence byte), so a
  // count beyond remaining()/2 is malformed — checked before reserving so a
  // forged count can never trigger a huge allocation.
  if (!r.ok() || n > r.remaining() / 2 + 1) return false;
  SharedUpdates recorded = payloads.find(tx, pid);
  if (recorded != nullptr && recorded->size() == n) {
    Reader probe = r;
    if (updates_equal(probe, *recorded)) {
      r = probe;
      out = std::move(recorded);
      return true;
    }
  }
  auto list = std::make_shared<UpdateList>();
  list->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const Key key = r.varint();
    bool present = false;
    std::string_view bytes;
    if (!r.ok() || !get_value_view(r, present, bytes)) return false;
    list->emplace_back(
        key, present ? payload_for(recorded.get(), key, bytes) : nullptr);
  }
  out = std::move(list);
  if (recorded == nullptr) payloads.record(tx, pid, out);
  return true;
}

std::size_t updates_size(const protocol::SharedUpdates& ups) {
  const std::size_t n = ups ? ups->size() : 0;
  std::size_t s = varint_size(n);
  if (!ups) return s;
  for (const auto& [key, value] : *ups) {
    s += varint_size(key) + value_size(value);
  }
  return s;
}


/// Optional trailing trace context. Encoded as a single varint appended
/// after the base fields, and only when nonzero — so untraced runs produce
/// frames byte-identical to codecs that predate the field, and every pinned
/// layout with tspan == 0 is unchanged. The decoder reads it only when bytes
/// remain after the base fields, which is unambiguous because every base
/// field is self-delimiting (see docs/WIRE.md, "Trace context").
void put_tspan(CursorWriter& w, std::uint64_t tspan) {
  if (tspan != 0) w.varint(tspan);
}

bool get_tspan(Reader& r, std::uint64_t& tspan) {
  tspan = 0;
  if (r.remaining() == 0) return true;
  tspan = r.varint();
  return r.ok() && tspan != 0;
}

std::size_t tspan_size(std::uint64_t tspan) {
  return tspan == 0 ? 0 : varint_size(tspan);
}

template <class M>
DecodeStatus decode_as(const std::uint8_t* body, std::size_t len,
                       PayloadTable& payloads, AnyMessage& out) {
  Reader r(body, len);
  M m;
  bool parsed = false;
  if constexpr (requires { decode_body(r, m, payloads); }) {
    parsed = decode_body(r, m, payloads);
  } else {
    parsed = decode_body(r, m);
  }
  if (!parsed || !r.ok() || r.remaining() != 0) return DecodeStatus::kBadBody;
  out = std::move(m);
  return DecodeStatus::kOk;
}

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

// -- ReadRequest --------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::ReadRequest& m) {
  put_txid(w, m.reader);
  w.varint(m.reader_node);
  w.varint(m.req_id);
  w.varint(m.key);
  w.varint(m.rs);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::ReadRequest& m) {
  if (!get_txid(r, m.reader)) return false;
  if (!get_u32(r, m.reader_node)) return false;
  m.req_id = r.varint();
  m.key = r.varint();
  m.rs = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::ReadRequest& m) {
  return txid_size(m.reader) + varint_size(m.reader_node) +
         varint_size(m.req_id) + varint_size(m.key) + varint_size(m.rs) + tspan_size(m.tspan);
}

// -- ReadReply ----------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::ReadReply& m) {
  put_txid(w, m.reader);
  w.varint(m.req_id);
  w.varint(m.key);
  w.u8(m.found ? 1 : 0);
  put_value(w, m.value);
  put_txid(w, m.writer);
  w.varint(m.version_ts);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::ReadReply& m, PayloadTable& payloads) {
  if (!get_txid(r, m.reader)) return false;
  m.req_id = r.varint();
  m.key = r.varint();
  if (!r.ok() || !get_bool(r, m.found)) return false;
  // The write identity (writer) follows the value, so the value is parsed
  // as a view and resolved once the rest of the body has been read.
  bool present = false;
  std::string_view bytes;
  if (!get_value_view(r, present, bytes)) return false;
  if (!get_txid(r, m.writer)) return false;
  m.version_ts = r.varint();
  if (!r.ok() || !get_tspan(r, m.tspan)) return false;
  if (present) {
    const SharedUpdates writes = payloads.find(
        m.writer, protocol::PartitionMap::partition_of(m.key));
    m.value = payload_for(writes.get(), m.key, bytes);
  }
  return true;
}

std::size_t body_size(const protocol::ReadReply& m) {
  return txid_size(m.reader) + varint_size(m.req_id) + varint_size(m.key) + 1 +
         value_size(m.value) + txid_size(m.writer) + varint_size(m.version_ts) + tspan_size(m.tspan);
}

// -- PrepareRequest -----------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::PrepareRequest& m) {
  put_txid(w, m.tx);
  w.varint(m.coordinator);
  w.varint(m.partition);
  w.varint(m.rs);
  put_updates(w, m.updates);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::PrepareRequest& m,
                 PayloadTable& payloads) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.coordinator)) return false;
  if (!get_u32(r, m.partition)) return false;
  m.rs = r.varint();
  if (!r.ok()) return false;
  if (!get_updates(r, m.tx, m.partition, payloads, m.updates)) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::PrepareRequest& m) {
  return txid_size(m.tx) + varint_size(m.coordinator) +
         varint_size(m.partition) + varint_size(m.rs) +
         updates_size(m.updates) + tspan_size(m.tspan);
}

// -- PrepareReply -------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::PrepareReply& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  w.varint(m.from);
  w.u8(m.prepared ? 1 : 0);
  w.varint(m.proposed_ts);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::PrepareReply& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  if (!get_u32(r, m.from)) return false;
  if (!get_bool(r, m.prepared)) return false;
  m.proposed_ts = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::PrepareReply& m) {
  return txid_size(m.tx) + varint_size(m.partition) + varint_size(m.from) + 1 +
         varint_size(m.proposed_ts) + tspan_size(m.tspan);
}

// -- ReplicateRequest ---------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::ReplicateRequest& m) {
  put_txid(w, m.tx);
  w.varint(m.coordinator);
  w.varint(m.partition);
  w.varint(m.rs);
  put_updates(w, m.updates);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::ReplicateRequest& m,
                 PayloadTable& payloads) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.coordinator)) return false;
  if (!get_u32(r, m.partition)) return false;
  m.rs = r.varint();
  if (!r.ok()) return false;
  if (!get_updates(r, m.tx, m.partition, payloads, m.updates)) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::ReplicateRequest& m) {
  return txid_size(m.tx) + varint_size(m.coordinator) +
         varint_size(m.partition) + varint_size(m.rs) +
         updates_size(m.updates) + tspan_size(m.tspan);
}

// -- CommitMessage ------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::CommitMessage& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  w.varint(m.commit_ts);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::CommitMessage& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  m.commit_ts = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::CommitMessage& m) {
  return txid_size(m.tx) + varint_size(m.partition) +
         varint_size(m.commit_ts) + tspan_size(m.tspan);
}

// -- AbortMessage -------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::AbortMessage& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::AbortMessage& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::AbortMessage& m) {
  return txid_size(m.tx) + varint_size(m.partition) + tspan_size(m.tspan);
}

// -- DecisionRequest ----------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::DecisionRequest& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  w.varint(m.from);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::DecisionRequest& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  if (!get_u32(r, m.from)) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::DecisionRequest& m) {
  return txid_size(m.tx) + varint_size(m.partition) + varint_size(m.from) + tspan_size(m.tspan);
}

// -- DecisionReply ------------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::DecisionReply& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  w.u8(static_cast<std::uint8_t>(m.decision));
  w.varint(m.commit_ts);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::DecisionReply& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  const std::uint8_t d = r.u8();
  if (!r.ok() || d > static_cast<std::uint8_t>(protocol::TxDecision::Aborted)) {
    return false;
  }
  m.decision = static_cast<protocol::TxDecision>(d);
  m.commit_ts = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::DecisionReply& m) {
  return txid_size(m.tx) + varint_size(m.partition) + 1 +
         varint_size(m.commit_ts) + tspan_size(m.tspan);
}

// -- DecisionReplicate --------------------------------------------------------

void encode_body(CursorWriter& w, const protocol::DecisionReplicate& m) {
  put_txid(w, m.tx);
  w.varint(m.origin);
  w.varint(m.commit_ts);
  w.varint(m.decided_at);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::DecisionReplicate& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.origin)) return false;
  m.commit_ts = r.varint();
  m.decided_at = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::DecisionReplicate& m) {
  return txid_size(m.tx) + varint_size(m.origin) + varint_size(m.commit_ts) +
         varint_size(m.decided_at) + tspan_size(m.tspan);
}

// -- DecisionReplicateAck -----------------------------------------------------

void encode_body(CursorWriter& w, const protocol::DecisionReplicateAck& m) {
  put_txid(w, m.tx);
  w.varint(m.partition);
  w.varint(m.from);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.varint(m.commit_ts);
  put_tspan(w, m.tspan);
}

bool decode_body(Reader& r, protocol::DecisionReplicateAck& m) {
  if (!get_txid(r, m.tx)) return false;
  if (!get_u32(r, m.partition)) return false;
  if (!get_u32(r, m.from)) return false;
  const std::uint8_t k = r.u8();
  if (!r.ok() ||
      k > static_cast<std::uint8_t>(protocol::DecisionAckKind::kNoRecord)) {
    return false;
  }
  m.kind = static_cast<protocol::DecisionAckKind>(k);
  m.commit_ts = r.varint();
  if (!r.ok()) return false;
  return get_tspan(r, m.tspan);
}

std::size_t body_size(const protocol::DecisionReplicateAck& m) {
  return txid_size(m.tx) + varint_size(m.partition) + varint_size(m.from) + 1 +
         varint_size(m.commit_ts) + tspan_size(m.tspan);
}

// -- frame decode -------------------------------------------------------------

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
  const std::uint8_t* body = data + kFrameLenBytes + kFrameTypeBytes;
  const std::size_t body_len = covered - kFrameTypeBytes;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kReadRequest:
      return decode_as<protocol::ReadRequest>(body, body_len, payloads, out);
    case MessageType::kReadReply:
      return decode_as<protocol::ReadReply>(body, body_len, payloads, out);
    case MessageType::kPrepareRequest:
      return decode_as<protocol::PrepareRequest>(body, body_len, payloads, out);
    case MessageType::kPrepareReply:
      return decode_as<protocol::PrepareReply>(body, body_len, payloads, out);
    case MessageType::kReplicateRequest:
      return decode_as<protocol::ReplicateRequest>(body, body_len, payloads,
                                                   out);
    case MessageType::kCommit:
      return decode_as<protocol::CommitMessage>(body, body_len, payloads, out);
    case MessageType::kAbort:
      return decode_as<protocol::AbortMessage>(body, body_len, payloads, out);
    case MessageType::kDecisionRequest:
      return decode_as<protocol::DecisionRequest>(body, body_len, payloads,
                                                  out);
    case MessageType::kDecisionReply:
      return decode_as<protocol::DecisionReply>(body, body_len, payloads, out);
    case MessageType::kDecisionReplicate:
      return decode_as<protocol::DecisionReplicate>(body, body_len, payloads,
                                                    out);
    case MessageType::kDecisionReplicateAck:
      return decode_as<protocol::DecisionReplicateAck>(body, body_len, payloads,
                                                       out);
  }
  return DecodeStatus::kBadType;
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out) {
  PayloadTable payloads;
  return decode_frame(data, size, out, payloads);
}

}  // namespace str::wire
