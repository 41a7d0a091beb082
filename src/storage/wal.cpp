#include "storage/wal.hpp"

#include <memory>
#include <string_view>
#include <utility>

#include "common/assert.hpp"

namespace str::storage {

namespace {

// -- body encoding (wire conventions: varints, length-prefixed) ------------

/// A record body's size as the encoders lay it out: `bytes` counts its
/// logical bytes, payloads included; `payload` and `slices` the part held
/// by reference. A fresh frame reserves exactly its non-payload bytes and
/// its slice table.
struct BodySize {
  std::size_t bytes = 0;
  std::size_t payload = 0;
  std::size_t slices = 0;

  void add(std::size_t n) { bytes += n; }
  void add_tx(const TxId& tx) {
    bytes += wire::varint_size(tx.node) + wire::varint_size(tx.seq);
  }
  /// A presence byte, then, for a payload, its length and its bytes.
  void add_value(const SharedValue& v) {
    if (v == nullptr) {
      bytes += 1;
      return;
    }
    bytes += 1 + wire::varint_size(v->size()) + v->size();
    payload += v->size();
    ++slices;
  }
  void add_updates(const WalUpdates& updates) {
    add(wire::varint_size(updates.size()));
    for (const auto& [key, value] : updates) {
      add(wire::varint_size(key));
      add_value(value);
    }
  }
};

/// Appends a record body to a LogBuffer: fields as bytes, each non-null
/// payload as a slice.
class BodyWriter {
 public:
  explicit BodyWriter(LogBuffer& out) : out_(out), w_(out.writer()) {}

  void u8(std::uint8_t v) { w_.u8(v); }
  void u32le(std::uint32_t v) { w_.u32le(v); }
  void varint(std::uint64_t v) { w_.varint(v); }
  void tx(const TxId& tx) {
    w_.varint(tx.node);
    w_.varint(tx.seq);
  }
  /// A payload handle is nullable ("no payload") and that must survive the
  /// round trip, so a presence byte precedes the bytes.
  void value(const SharedValue& v) {
    if (v == nullptr) {
      w_.u8(0);
      return;
    }
    w_.u8(1);
    w_.varint(v->size());
    out_.put_payload(v);
  }
  void updates(const WalUpdates& updates) {
    w_.varint(updates.size());
    for (const auto& [key, v] : updates) {
      w_.varint(key);
      value(v);
    }
  }

 private:
  LogBuffer& out_;
  wire::Writer w_;
};

/// Reads one record body in place, from the byte after the type tag to the
/// checksum. Fields come from the runs of non-payload bytes between slices,
/// each through a bounds-checked wire::Reader, so a field never straddles
/// a payload. A value whose bytes are the next slice decodes to that
/// payload; one whose bytes are inline (a flat chunk) is copied.
class BodyReader {
 public:
  /// The body spans bytes()[pos, end) and slices [slice, end_slice).
  BodyReader(const LogBuffer& buf, std::size_t pos, std::size_t slice,
             std::size_t end, std::size_t end_slice)
      : bytes_(buf.bytes().data()),
        slices_(buf.slices().data()),
        slice_(slice),
        end_slice_(end_slice),
        end_(end),
        r_(run_from(pos)) {}

  std::uint8_t u8() { return r_.u8(); }
  std::uint64_t varint() { return r_.varint(); }
  bool ok() const { return r_.ok(); }

  TxId tx() {
    TxId tx;
    tx.node = static_cast<NodeId>(r_.varint());
    tx.seq = r_.varint();
    return tx;
  }

  bool value(SharedValue& out) {
    const std::uint8_t has = r_.u8();
    if (has > 1) return false;
    if (has == 0) {
      out = nullptr;
      return r_.ok();
    }
    const std::uint64_t len = r_.varint();
    if (!r_.ok()) return false;
    if (r_.remaining() == 0 && slice_ < end_slice_) {
      const PayloadSlice& s = slices_[slice_++];
      if (s.value->size() != len) return false;
      out = s.value;
      r_ = run_from(s.at);
      return true;
    }
    std::string_view inline_bytes;
    if (!r_.raw(len, inline_bytes)) return false;
    out = std::make_shared<const Value>(inline_bytes);
    return true;
  }

  bool updates(WalUpdates& out) {
    const std::uint64_t count = r_.varint();
    if (!r_.ok() || count > remaining()) return false;  // forged count
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const Key key = r_.varint();
      SharedValue v;
      if (!value(v)) return false;
      out.emplace_back(key, std::move(v));
    }
    return r_.ok();
  }

  /// Non-payload bytes left in the body: every update or version takes at
  /// least one, which bounds a forged count.
  std::size_t remaining() const {
    return end_ - (run_end_ - r_.remaining());
  }

  /// Every byte and every slice of the body was read.
  bool done() const {
    return r_.ok() && r_.remaining() == 0 && slice_ == end_slice_;
  }

 private:
  /// A reader over the run of non-payload bytes from `pos` to the next
  /// slice or the end of the body.
  wire::Reader run_from(std::size_t pos) {
    run_end_ = slice_ < end_slice_ ? slices_[slice_].at : end_;
    return wire::Reader(bytes_ + pos, run_end_ - pos);
  }

  const std::uint8_t* bytes_;
  const PayloadSlice* slices_;
  std::size_t slice_;
  std::size_t end_slice_;
  std::size_t end_;
  std::size_t run_end_ = 0;
  wire::Reader r_;
};

/// Writes one record frame at the end of `out`: length prefix, type tag,
/// the body that `put_body` writes, checksum over the logical type tag and
/// body. A fresh buffer gets exactly one frame of capacity. Appends to a
/// filled one grow it geometrically: decision-log compaction encodes every
/// surviving entry into one buffer, and an exact reserve per record would
/// make that quadratic.
template <typename PutBody>
void put_frame(LogBuffer& out, WalRecordType type, const BodySize& body,
               PutBody&& put_body) {
  const std::size_t start = out.bytes().size();
  const std::size_t first_slice = out.slices().size();
  const std::size_t logical_start = out.size();
  if (start == 0) {
    out.reserve(wire::kFrameOverhead + body.bytes - body.payload,
                body.slices);
  }
  BodyWriter w(out);
  w.u32le(static_cast<std::uint32_t>(wire::kFrameTypeBytes + body.bytes +
                                     wire::kFrameChecksumBytes));
  w.u8(static_cast<std::uint8_t>(type));
  put_body(w);
  const std::size_t covered = wire::kFrameTypeBytes + body.bytes;
  STR_ASSERT_MSG(out.size() - logical_start == wire::kFrameLenBytes + covered,
                 "WAL record body size mismatch");
  std::uint32_t crc = 0;
  LogCursor(out, start + wire::kFrameLenBytes, first_slice)
      .walk(covered, [&crc](const std::uint8_t* p, std::size_t n) {
        crc = wire::checksum32(p, n, crc);
      });
  w.u32le(crc);
}

/// Decode one record body (the type tag first). Returns false on any
/// malformed field, range violation, or trailing bytes.
bool decode_body(BodyReader& r, WalRecord& rec) {
  const auto type = static_cast<WalRecordType>(r.u8());
  rec.type = type;
  switch (type) {
    case WalRecordType::kPrepare:
      rec.tx = r.tx();
      rec.rs = r.varint();
      rec.ts = r.varint();
      if (!r.updates(rec.updates)) return false;
      break;
    case WalRecordType::kCommit:
      rec.tx = r.tx();
      rec.ts = r.varint();
      if (!r.updates(rec.updates)) return false;
      break;
    case WalRecordType::kAbort:
      rec.tx = r.tx();
      break;
    case WalRecordType::kDecision:
      rec.tx = r.tx();
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
        v.writer = r.tx();
        if (!r.value(v.value)) return false;
        rec.snapshot.push_back(std::move(v));
      }
      break;
    }
    default:
      return false;
  }
  return r.done();
}

}  // namespace

void encode_prepare(LogBuffer& out, const TxId& tx, Timestamp rs,
                    Timestamp proposed, const WalUpdates& updates) {
  BodySize body;
  body.add_tx(tx);
  body.add(wire::varint_size(rs) + wire::varint_size(proposed));
  body.add_updates(updates);
  put_frame(out, WalRecordType::kPrepare, body, [&](BodyWriter& w) {
    w.tx(tx);
    w.varint(rs);
    w.varint(proposed);
    w.updates(updates);
  });
}

void encode_commit(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                   const WalUpdates& updates) {
  BodySize body;
  body.add_tx(tx);
  body.add(wire::varint_size(commit_ts));
  body.add_updates(updates);
  put_frame(out, WalRecordType::kCommit, body, [&](BodyWriter& w) {
    w.tx(tx);
    w.varint(commit_ts);
    w.updates(updates);
  });
}

void encode_abort(LogBuffer& out, const TxId& tx) {
  BodySize body;
  body.add_tx(tx);
  put_frame(out, WalRecordType::kAbort, body,
            [&](BodyWriter& w) { w.tx(tx); });
}

void encode_decision(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                     Timestamp at) {
  BodySize body;
  body.add_tx(tx);
  body.add(wire::varint_size(commit_ts) + wire::varint_size(at));
  put_frame(out, WalRecordType::kDecision, body, [&](BodyWriter& w) {
    w.tx(tx);
    w.varint(commit_ts);
    w.varint(at);
  });
}

void encode_checkpoint(LogBuffer& out, Timestamp watermark,
                       const std::vector<CheckpointVersion>& snapshot) {
  BodySize body;
  body.add(wire::varint_size(watermark) + wire::varint_size(snapshot.size()));
  for (const CheckpointVersion& v : snapshot) {
    body.add(wire::varint_size(v.key) + wire::varint_size(v.ts) +
             1 /* state */);
    body.add_tx(v.writer);
    body.add_value(v.value);
  }
  put_frame(out, WalRecordType::kCheckpoint, body, [&](BodyWriter& w) {
    w.varint(watermark);
    w.varint(snapshot.size());
    for (const CheckpointVersion& v : snapshot) {
      w.varint(v.key);
      w.varint(v.ts);
      w.u8(static_cast<std::uint8_t>(v.state));
      w.tx(v.writer);
      w.value(v.value);
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

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Checksum-scan the frames of one chunk, adding what it validates to
/// `result.records` and `result.valid_bytes`. Offsets are logical: the
/// cursor walks the non-payload bytes and the payloads in stream order.
ChunkEnd scan_chunk(const LogBuffer& chunk,
                    const std::function<void(const WalRecord&)>& visit,
                    WalScanResult& result) {
  LogCursor cur(chunk);
  const std::size_t size = chunk.size();
  std::size_t off = 0;
  ChunkEnd end = ChunkEnd::kWhole;
  while (off < size) {
    const std::size_t left = size - off;
    if (left < wire::kFrameLenBytes) {  // torn mid length-prefix
      end = ChunkEnd::kMidFrame;
      break;
    }
    std::uint8_t word[4];
    cur.read(word, wire::kFrameLenBytes);
    const std::uint32_t rest_len = load_le32(word);
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
    const LogCursor body = cur;
    std::uint32_t crc = 0;
    cur.walk(rest_len - wire::kFrameChecksumBytes,
             [&crc](const std::uint8_t* p, std::size_t n) {
               crc = wire::checksum32(p, n, crc);
             });
    const LogCursor body_end = cur;
    cur.read(word, wire::kFrameChecksumBytes);
    // A checksummed frame holds its payloads whole and ends in bytes of
    // its own; anything else is not a frame this log wrote.
    if (load_le32(word) != crc || body_end.in_payload() ||
        cur.slice() != body_end.slice()) {
      end = ChunkEnd::kBadFrame;
      break;
    }
    BodyReader reader(chunk, body.pos(), body.slice(), body_end.pos(),
                      body_end.slice());
    WalRecord rec;
    if (!decode_body(reader, rec)) {
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

WalScanResult scan_wal(const LogBuffer& bytes,
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

Wal::Counters Wal::register_counters(obs::Registry& reg) {
  Counters c;
  c.records = &reg.counter("wal.records");
  c.flushes = &reg.counter("wal.flushes");
  c.flushed_bytes = &reg.counter("wal.flushed_bytes");
  c.checkpoints = &reg.counter("wal.checkpoints");
  c.replayed = &reg.counter("wal.replayed_records");
  c.torn = &reg.counter("wal.torn_truncations");
  return c;
}

Wal::Wal(sim::Scheduler& sched, std::unique_ptr<Medium> medium,
         Options options, Counters counters)
    : sched_(sched),
      medium_(std::move(medium)),
      options_(options),
      counters_(counters) {
  end_offset_ = medium_->durable_size();
}

std::uint64_t Wal::append(LogBuffer frame, UniqueFunction<void()> on_durable) {
  STR_ASSERT_MSG(frame.size() >= wire::kMinFrameSize,
                 "Wal::append of a non-frame");
  end_offset_ += frame.size();
  medium_->append(std::move(frame));
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
    medium_->truncate_durable(result.valid_bytes);
  }
  end_offset_ = result.valid_bytes;
  return result;
}

void Wal::rewrite(LogBuffer bytes) {
  STR_ASSERT_MSG(idle(), "Wal::rewrite on a busy log");
  end_offset_ = bytes.size();
  medium_->reset_durable(std::move(bytes));
  if (counters_.checkpoints != nullptr) counters_.checkpoints->inc();
}

}  // namespace str::storage
