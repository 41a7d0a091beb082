#include "storage/wal.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace str::storage {

namespace {

// -- body encoding helpers (wire conventions: varints, length-prefixed) -----

void put_tx(wire::Writer& w, const TxId& tx) {
  w.varint(tx.node);
  w.varint(tx.seq);
}

std::size_t tx_size(const TxId& tx) {
  return wire::varint_size(tx.node) + wire::varint_size(tx.seq);
}

TxId get_tx(wire::Reader& r) {
  TxId tx;
  tx.node = static_cast<NodeId>(r.varint());
  tx.seq = r.varint();
  return tx;
}

/// A payload handle is nullable ("no payload") and that must survive the
/// round trip, so a presence byte precedes the bytes.
void put_value(wire::Writer& w, const SharedValue& v) {
  if (v == nullptr) {
    w.u8(0);
    return;
  }
  w.u8(1);
  w.str(*v);
}

std::size_t value_size(const SharedValue& v) {
  return v == nullptr ? 1 : 1 + wire::varint_size(v->size()) + v->size();
}

bool get_value(wire::Reader& r, SharedValue& out) {
  const std::uint8_t has = r.u8();
  if (has > 1) return false;
  if (has == 0) {
    out = nullptr;
    return true;
  }
  std::string s;
  if (!r.str(s)) return false;
  out = std::make_shared<const Value>(std::move(s));
  return true;
}

void put_updates(wire::Writer& w, const WalUpdates& updates) {
  w.varint(updates.size());
  for (const auto& [key, value] : updates) {
    w.varint(key);
    put_value(w, value);
  }
}

std::size_t updates_size(const WalUpdates& updates) {
  std::size_t n = wire::varint_size(updates.size());
  for (const auto& [key, value] : updates) {
    n += wire::varint_size(key) + value_size(value);
  }
  return n;
}

bool get_updates(wire::Reader& r, WalUpdates& out) {
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > r.remaining()) return false;  // forged count
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const Key key = r.varint();
    SharedValue value;
    if (!get_value(r, value)) return false;
    out.emplace_back(key, std::move(value));
  }
  return r.ok();
}

/// Writes one record frame straight into `out`: length prefix, type tag,
/// the `body_bytes`-byte body that `put_body` writes, checksum. A fresh
/// buffer gets exactly one frame of capacity. Appends to a filled one grow
/// it geometrically: decision-log compaction encodes every surviving entry
/// into one buffer, and an exact reserve per record would make that
/// quadratic.
template <typename PutBody>
void put_frame(wire::Buffer& out, WalRecordType type, std::size_t body_bytes,
               PutBody&& put_body) {
  const std::size_t start = out.size();
  if (start == 0) out.reserve(wire::kFrameOverhead + body_bytes);
  wire::Writer w(out);
  w.u32le(static_cast<std::uint32_t>(wire::kFrameTypeBytes + body_bytes +
                                     wire::kFrameChecksumBytes));
  w.u8(static_cast<std::uint8_t>(type));
  put_body(w);
  const std::size_t payload = start + wire::kFrameLenBytes;
  STR_ASSERT_MSG(out.size() - payload == wire::kFrameTypeBytes + body_bytes,
                 "WAL record body size mismatch");
  w.u32le(wire::checksum32(out.data() + payload, out.size() - payload));
}

/// Decode one record body (after the type tag). Returns false on any
/// malformed field, range violation, or trailing bytes.
bool decode_body(WalRecordType type, const std::uint8_t* body,
                 std::size_t size, WalRecord& rec) {
  wire::Reader r(body, size);
  rec.type = type;
  switch (type) {
    case WalRecordType::kPrepare:
      rec.tx = get_tx(r);
      rec.rs = r.varint();
      rec.ts = r.varint();
      if (!get_updates(r, rec.updates)) return false;
      break;
    case WalRecordType::kCommit:
      rec.tx = get_tx(r);
      rec.ts = r.varint();
      if (!get_updates(r, rec.updates)) return false;
      break;
    case WalRecordType::kAbort:
      rec.tx = get_tx(r);
      break;
    case WalRecordType::kDecision:
      rec.tx = get_tx(r);
      rec.ts = r.varint();
      rec.at = r.varint();
      break;
    case WalRecordType::kCheckpoint: {
      rec.ts = r.varint();
      const std::uint64_t count = r.varint();
      if (!r.ok() || count > r.remaining()) return false;
      rec.snapshot.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        CheckpointVersion v;
        v.key = r.varint();
        v.ts = r.varint();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(VersionState::Committed)) {
          return false;
        }
        v.state = static_cast<VersionState>(state);
        v.writer = get_tx(r);
        if (!get_value(r, v.value)) return false;
        rec.snapshot.push_back(std::move(v));
      }
      break;
    }
    default:
      return false;
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

void encode_prepare(wire::Buffer& out, const TxId& tx, Timestamp rs,
                    Timestamp proposed, const WalUpdates& updates) {
  const std::size_t body = tx_size(tx) + wire::varint_size(rs) +
                           wire::varint_size(proposed) + updates_size(updates);
  put_frame(out, WalRecordType::kPrepare, body, [&](wire::Writer& w) {
    put_tx(w, tx);
    w.varint(rs);
    w.varint(proposed);
    put_updates(w, updates);
  });
}

void encode_commit(wire::Buffer& out, const TxId& tx, Timestamp commit_ts,
                   const WalUpdates& updates) {
  const std::size_t body =
      tx_size(tx) + wire::varint_size(commit_ts) + updates_size(updates);
  put_frame(out, WalRecordType::kCommit, body, [&](wire::Writer& w) {
    put_tx(w, tx);
    w.varint(commit_ts);
    put_updates(w, updates);
  });
}

void encode_abort(wire::Buffer& out, const TxId& tx) {
  put_frame(out, WalRecordType::kAbort, tx_size(tx),
            [&](wire::Writer& w) { put_tx(w, tx); });
}

void encode_decision(wire::Buffer& out, const TxId& tx, Timestamp commit_ts,
                     Timestamp at) {
  const std::size_t body =
      tx_size(tx) + wire::varint_size(commit_ts) + wire::varint_size(at);
  put_frame(out, WalRecordType::kDecision, body, [&](wire::Writer& w) {
    put_tx(w, tx);
    w.varint(commit_ts);
    w.varint(at);
  });
}

void encode_checkpoint(wire::Buffer& out, Timestamp watermark,
                       const std::vector<CheckpointVersion>& snapshot) {
  std::size_t body =
      wire::varint_size(watermark) + wire::varint_size(snapshot.size());
  for (const CheckpointVersion& v : snapshot) {
    body += wire::varint_size(v.key) + wire::varint_size(v.ts) +
            1 /* state */ + tx_size(v.writer) + value_size(v.value);
  }
  put_frame(out, WalRecordType::kCheckpoint, body, [&](wire::Writer& w) {
    w.varint(watermark);
    w.varint(snapshot.size());
    for (const CheckpointVersion& v : snapshot) {
      w.varint(v.key);
      w.varint(v.ts);
      w.u8(static_cast<std::uint8_t>(v.state));
      put_tx(w, v.writer);
      put_value(w, v.value);
    }
  });
}

namespace {

/// Where a scan of one chunk stopped.
enum class ChunkEnd {
  kWhole,     ///< every byte is part of a valid frame
  kMidFrame,  ///< the chunk ends inside a frame (torn tail)
  kBadFrame,  ///< impossible length, checksum mismatch or malformed body
};

/// Checksum-scan the frames of one chunk, adding what it validates to
/// `result.records` and `result.valid_bytes`.
ChunkEnd scan_chunk(const wire::Buffer& bytes,
                    const std::function<void(const WalRecord&)>& visit,
                    WalScanResult& result) {
  std::size_t off = 0;
  ChunkEnd end = ChunkEnd::kWhole;
  while (off < bytes.size()) {
    const std::size_t left = bytes.size() - off;
    if (left < wire::kFrameLenBytes) {  // torn mid length-prefix
      end = ChunkEnd::kMidFrame;
      break;
    }
    const std::uint32_t rest_len =
        static_cast<std::uint32_t>(bytes[off]) |
        (static_cast<std::uint32_t>(bytes[off + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[off + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[off + 3]) << 24);
    // Reject impossible lengths before trusting them: a torn or bit-flipped
    // prefix must not send the scan past the end of the buffer.
    if (rest_len < wire::kFrameTypeBytes + wire::kFrameChecksumBytes) {
      end = ChunkEnd::kBadFrame;
      break;
    }
    if (left - wire::kFrameLenBytes < rest_len) {  // torn mid frame
      end = ChunkEnd::kMidFrame;
      break;
    }
    const std::uint8_t* payload = bytes.data() + off + wire::kFrameLenBytes;
    const std::size_t payload_len = rest_len - wire::kFrameChecksumBytes;
    const std::uint8_t* cksum_at = payload + payload_len;
    const std::uint32_t stored =
        static_cast<std::uint32_t>(cksum_at[0]) |
        (static_cast<std::uint32_t>(cksum_at[1]) << 8) |
        (static_cast<std::uint32_t>(cksum_at[2]) << 16) |
        (static_cast<std::uint32_t>(cksum_at[3]) << 24);
    WalRecord rec;
    if (wire::checksum32(payload, payload_len) != stored ||
        !decode_body(static_cast<WalRecordType>(payload[0]), payload + 1,
                     payload_len - 1, rec)) {
      // A checksummed but malformed body is treated as torn too.
      end = ChunkEnd::kBadFrame;
      break;
    }
    if (visit) visit(rec);
    off += wire::kFrameLenBytes + rest_len;
    ++result.records;
  }
  result.valid_bytes += off;
  return end;
}

}  // namespace

WalScanResult scan_wal(const wire::Buffer& bytes,
                       const std::function<void(const WalRecord&)>& visit) {
  WalScanResult result;
  result.torn = scan_chunk(bytes, visit, result) != ChunkEnd::kWhole;
  return result;
}

WalScanResult scan_wal(const DurableChunks& chunks,
                       const std::function<void(const WalRecord&)>& visit) {
  WalScanResult result;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ChunkEnd end = scan_chunk(chunks[i], visit, result);
    if (end == ChunkEnd::kWhole) continue;
    // Whole frames per append and whole appends per sync: only a torn
    // tail, always the last chunk, can cut a frame short.
    STR_ASSERT_MSG(end != ChunkEnd::kMidFrame || i + 1 == chunks.size(),
                   "a WAL frame spans two durable chunks");
    result.torn = true;
    break;
  }
  return result;
}

Wal::Wal(sim::Scheduler& sched, std::unique_ptr<Medium> medium,
         Options options, Counters counters)
    : sched_(sched),
      medium_(std::move(medium)),
      options_(options),
      counters_(counters) {
  end_offset_ = medium_->durable_size();
}

std::uint64_t Wal::append(const wire::Buffer& frame_bytes,
                          UniqueFunction<void()> on_durable) {
  STR_ASSERT_MSG(frame_bytes.size() >= wire::kMinFrameSize,
                 "Wal::append of a non-frame");
  medium_->append(frame_bytes);
  end_offset_ += frame_bytes.size();
  ++pending_count_;
  if (on_durable) pending_cbs_.push_back(std::move(on_durable));
  if (counters_.records != nullptr) counters_.records->inc();
  if (!medium_->sync_in_flight()) {
    if (pending_count_ >= options_.group_commit_batch) {
      begin_flush();
    } else {
      arm_deadline();
    }
  }
  return end_offset_;
}

void Wal::sync(UniqueFunction<void()> cb) {
  if (idle()) {
    if (cb) cb();
    return;
  }
  if (pending_count_ == 0) {
    // Nothing new to flush — ride the in-flight sync.
    if (cb) inflight_cbs_.push_back(std::move(cb));
    return;
  }
  if (cb) pending_cbs_.push_back(std::move(cb));
  if (medium_->sync_in_flight()) {
    force_next_ = true;  // flush the batch as soon as the current sync lands
  } else {
    begin_flush();
  }
}

void Wal::begin_flush() {
  STR_ASSERT_MSG(!medium_->sync_in_flight(), "flush over an in-flight sync");
  ++gen_;  // retire any armed deadline timer
  deadline_armed_ = false;
  force_next_ = false;
  pending_count_ = 0;
  inflight_cbs_ = std::move(pending_cbs_);
  pending_cbs_.clear();
  inflight_bytes_ = medium_->buffered_bytes();
  medium_->sync([this]() {
    if (counters_.flushes != nullptr) counters_.flushes->inc();
    if (counters_.flushed_bytes != nullptr) {
      counters_.flushed_bytes->inc(inflight_bytes_);
    }
    // Callbacks may append or sync re-entrantly: detach the list first.
    std::vector<UniqueFunction<void()>> cbs = std::move(inflight_cbs_);
    inflight_cbs_.clear();
    for (auto& cb : cbs) cb();
    if (!medium_->sync_in_flight() && pending_count_ > 0) {
      if (force_next_ || pending_count_ >= options_.group_commit_batch) {
        begin_flush();
      } else {
        arm_deadline();
      }
    }
  });
}

void Wal::arm_deadline() {
  if (deadline_armed_) return;  // the earliest deadline stands
  deadline_armed_ = true;
  sched_.schedule_after(options_.group_commit_interval,
                        [this, gen = gen_]() {
                          if (gen != gen_) return;  // flushed or crashed
                          deadline_armed_ = false;
                          if (pending_count_ > 0) begin_flush();
                        });
}

void Wal::crash() {
  medium_->crash();
  pending_cbs_.clear();
  inflight_cbs_.clear();
  pending_count_ = 0;
  force_next_ = false;
  ++gen_;  // retire the deadline timer
  deadline_armed_ = false;
  end_offset_ = medium_->durable_size();
}

std::uint64_t Wal::durable_prefix() const {
  return scan_wal(medium_->durable_chunks(), nullptr).valid_bytes;
}

WalScanResult Wal::replay(const std::function<void(const WalRecord&)>& visit) {
  STR_ASSERT_MSG(idle(), "Wal::replay on a busy log");
  const WalScanResult result = scan_wal(medium_->durable_chunks(), visit);
  if (counters_.replayed != nullptr) counters_.replayed->inc(result.records);
  if (result.torn) {
    if (counters_.torn != nullptr) counters_.torn->inc();
    // Concatenate the valid prefix into one chunk.
    wire::Buffer prefix;
    prefix.reserve(result.valid_bytes);
    for (const wire::Buffer& chunk : medium_->durable_chunks()) {
      const std::size_t take =
          std::min(chunk.size(), result.valid_bytes - prefix.size());
      prefix.insert(prefix.end(), chunk.begin(),
                    chunk.begin() + static_cast<std::ptrdiff_t>(take));
    }
    medium_->reset_durable(std::move(prefix));
  }
  end_offset_ = result.valid_bytes;
  return result;
}

void Wal::rewrite(wire::Buffer bytes) {
  STR_ASSERT_MSG(idle(), "Wal::rewrite on a busy log");
  end_offset_ = bytes.size();
  medium_->reset_durable(std::move(bytes));
  if (counters_.checkpoints != nullptr) counters_.checkpoints->inc();
}

}  // namespace str::storage
