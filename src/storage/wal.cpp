#include "storage/wal.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "wire/fields.hpp"

namespace str::storage {

namespace {

// -- record field lists -------------------------------------------------------
// Each record type's body fields in log order: the one place a record
// layout is defined. Sizing, writing and reading all run these through the
// field codecs frames use (wire/fields.hpp); the encoders pass their
// arguments, the decoder a WalRecord's members.

void prepare_fields(auto& v, auto& tx, auto& rs, auto& proposed,
                    auto& updates) {
  v.tx(tx);
  v.num(rs);
  v.num(proposed);
  v.updates(updates);
}

void commit_fields(auto& v, auto& tx, auto& commit_ts, auto& updates) {
  v.tx(tx);
  v.num(commit_ts);
  v.updates(updates);
}

void abort_fields(auto& v, auto& tx) { v.tx(tx); }

void decision_fields(auto& v, auto& tx, auto& commit_ts, auto& at) {
  v.tx(tx);
  v.num(commit_ts);
  v.num(at);
}

void checkpoint_fields(auto& v, auto& watermark, auto& snapshot) {
  v.num(watermark);
  v.list(snapshot, [](auto& w, auto& version) {
    w.num(version.key);
    w.num(version.ts);
    w.enumerated(version.state, VersionState::Committed);
    w.tx(version.writer);
    w.value(version.value);
  });
}

/// A record's sink: its non-payload bytes written in place, into the bytes
/// its frame extended a LogBuffer by, and each payload held as a slice.
class LogSink {
 public:
  /// The record's `fields` non-payload bytes start at `out.bytes()[start]`,
  /// which is `at`; a write past them stops at the CursorWriter's assert.
  LogSink(LogBuffer& out, std::size_t start, std::uint8_t* at,
          std::size_t fields)
      : out_(out), start_(start), at_(at), w_(at, at + fields) {}

  void u8(std::uint8_t v) { w_.u8(v); }
  void u32le(std::uint32_t v) { w_.u32le(v); }
  void varint(std::uint64_t v) { w_.varint(v); }
  void payload(const SharedValue& v) { out_.put_payload(offset(), v); }

  /// Offset in the buffer's bytes() of the next byte to write.
  std::size_t offset() const {
    return start_ + static_cast<std::size_t>(w_.position() - at_);
  }

 private:
  LogBuffer& out_;
  std::size_t start_;
  const std::uint8_t* at_;
  wire::CursorWriter w_;
};

/// A record body as a decoder's source, from the byte after the type tag
/// to the checksum. Fields come from the runs of non-payload bytes between
/// slices, each through a bounds-checked wire::Reader, so a field never
/// straddles a payload. A value whose bytes are the next slice is that
/// payload; one whose bytes are inline (a flat chunk) is a view of them.
class LogSource {
 public:
  /// The body spans bytes()[pos, end) and slices [slice, end_slice).
  LogSource(const LogBuffer& buf, std::size_t pos, std::size_t slice,
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
  void fail() { r_.fail(); }

  bool payload(std::uint64_t len, wire::PayloadView& out) {
    if (r_.remaining() == 0 && slice_ < end_slice_) {
      const PayloadSlice& s = slices_[slice_++];
      if (s.value->size() != len) {
        fail();
        return false;
      }
      out.held = &s.value;
      r_ = run_from(s.at);
      return true;
    }
    return r_.raw(len, out.bytes);
  }

  /// Non-payload bytes left in the body: what bounds a forged count.
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
/// the body `fields(v)` lists, checksum over the logical type tag and body.
/// The list runs twice: once to size the frame, once to write it. A fresh
/// buffer gets exactly one frame of capacity. Appends to a filled one grow
/// it geometrically: decision-log compaction encodes every surviving entry
/// into one buffer, and an exact reserve per record would make that
/// quadratic.
template <class Fields>
void put_frame(LogBuffer& out, WalRecordType type, const Fields& fields) {
  wire::SizeSink body;
  wire::Encoder<wire::SizeSink> sizer(body);
  fields(sizer);
  const std::size_t start = out.bytes().size();
  const std::size_t first_slice = out.slices().size();
  const std::size_t logical_start = out.size();
  const std::size_t bytes = wire::kFrameOverhead + body.bytes -
                            body.payload_bytes;
  if (start == 0) out.reserve(bytes, body.payloads);
  LogSink sink(out, start, out.extend(bytes), bytes);
  sink.u32le(static_cast<std::uint32_t>(wire::kFrameTypeBytes + body.bytes +
                                        wire::kFrameChecksumBytes));
  sink.u8(static_cast<std::uint8_t>(type));
  wire::Encoder<LogSink> writer(sink, sizer.counted());
  fields(writer);
  const std::size_t covered = wire::kFrameTypeBytes + body.bytes;
  STR_ASSERT_MSG(sink.offset() == start + bytes - wire::kFrameChecksumBytes &&
                     out.size() - logical_start == wire::kFrameOverhead +
                                                       body.bytes,
                 "WAL record body size mismatch");
  std::uint32_t crc = 0;
  LogCursor(out, start + wire::kFrameLenBytes, first_slice)
      .walk(covered, [&crc](const std::uint8_t* p, std::size_t n) {
        crc = wire::checksum32(p, n, crc);
      });
  sink.u32le(crc);
}

/// Decode one record body (the type tag first). Returns false on any
/// malformed field, range violation, or trailing bytes.
bool decode_record(LogSource& src, WalRecord& rec) {
  wire::Decoder<LogSource> v(src);
  rec.type = static_cast<WalRecordType>(src.u8());
  switch (rec.type) {
    case WalRecordType::kPrepare:
      prepare_fields(v, rec.tx, rec.rs, rec.ts, rec.updates);
      break;
    case WalRecordType::kCommit:
      commit_fields(v, rec.tx, rec.ts, rec.updates);
      break;
    case WalRecordType::kAbort:
      abort_fields(v, rec.tx);
      break;
    case WalRecordType::kDecision:
      decision_fields(v, rec.tx, rec.ts, rec.at);
      break;
    case WalRecordType::kCheckpoint:
      checkpoint_fields(v, rec.ts, rec.snapshot);
      break;
    default:
      return false;
  }
  return src.done();
}

}  // namespace

void encode_prepare(LogBuffer& out, const TxId& tx, Timestamp rs,
                    Timestamp proposed, const WalUpdates& updates) {
  put_frame(out, WalRecordType::kPrepare, [&](auto& v) {
    prepare_fields(v, tx, rs, proposed, updates);
  });
}

void encode_commit(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                   const WalUpdates& updates) {
  put_frame(out, WalRecordType::kCommit,
            [&](auto& v) { commit_fields(v, tx, commit_ts, updates); });
}

void encode_commit(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                   const ForEachUpdate& updates) {
  put_frame(out, WalRecordType::kCommit,
            [&](auto& v) { commit_fields(v, tx, commit_ts, updates); });
}

void encode_abort(LogBuffer& out, const TxId& tx) {
  put_frame(out, WalRecordType::kAbort, [&](auto& v) { abort_fields(v, tx); });
}

void encode_decision(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                     Timestamp at) {
  put_frame(out, WalRecordType::kDecision,
            [&](auto& v) { decision_fields(v, tx, commit_ts, at); });
}

void encode_checkpoint(LogBuffer& out, Timestamp watermark,
                       const std::vector<CheckpointVersion>& snapshot) {
  put_frame(out, WalRecordType::kCheckpoint,
            [&](auto& v) { checkpoint_fields(v, watermark, snapshot); });
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

/// Size of the frame `chunk` starts with if it is a checkpoint, else 0. Reads
/// only the length prefix and the type tag: callers pass a frame they wrote
/// or one the scan validated.
std::uint64_t leading_checkpoint_bytes(const LogBuffer& chunk) {
  const wire::Buffer& bytes = chunk.bytes();
  if (bytes.size() < wire::kFrameLenBytes + wire::kFrameTypeBytes ||
      bytes[wire::kFrameLenBytes] !=
          static_cast<std::uint8_t>(WalRecordType::kCheckpoint)) {
    return 0;
  }
  return wire::kFrameLenBytes + load_le32(bytes.data());
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
    LogSource src(chunk, body.pos(), body.slice(), body_end.pos(),
                  body_end.slice());
    WalRecord rec;
    if (!decode_record(src, rec)) {
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
  // No frame spans two chunks, so a validated first record is whole in the
  // first chunk.
  checkpoint_bytes_ =
      result.records == 0
          ? 0
          : leading_checkpoint_bytes(medium_->durable_chunks().front());
  return result;
}

void Wal::rewrite(LogBuffer bytes) {
  STR_ASSERT_MSG(idle(), "Wal::rewrite on a busy log");
  end_offset_ = bytes.size();
  checkpoint_bytes_ = leading_checkpoint_bytes(bytes);
  medium_->reset_durable(std::move(bytes));
  if (counters_.checkpoints != nullptr) counters_.checkpoints->inc();
}

}  // namespace str::storage
