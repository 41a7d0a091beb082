// Per-partition write-ahead log with group commit (docs/DURABILITY.md).
//
// Records are framed exactly like wire frames (wire/codec.hpp):
//
//   [u32le rest_len][u8 record type][body][u32le CRC-32C(type + body)]
//
// so the log is self-delimiting on a byte stream and a torn or bit-flipped
// tail is detected by the checksum scan, not trusted from the length
// prefix. Encoders write into a LogBuffer (storage/log_buffer.hpp): value
// payloads are held by reference, as slices, and every other byte is
// written in place into a buffer reserved to its exact size, so a record
// costs that buffer and a slice table whatever its values weigh. The
// checksum is computed over the logical bytes, payloads included, so the
// bytes a frame stands for are exactly the flat encoding. Five record
// types:
//
//   kPrepare    — a remote-coordinated transaction's pre-commit on this
//                 partition (tx, rs, proposed ts, full update list). Forced
//                 to disk before the prepare/replicate ack (2PC participant
//                 rule); group commit batches the forces.
//   kCommit     — a final commit applied on this partition (tx, commit ts,
//                 update list). The coordinator's commit barrier lists the
//                 writes: local prepares are never logged. A participant's
//                 lazy record is the outcome only, its list empty: its
//                 writes are in the kPrepare before it, or in the
//                 checkpoint that re-staged that pre-commit.
//   kAbort      — tx aborted here (lazy; presumed abort covers its loss).
//   kDecision   — node-level decision-log entry (tx, commit ts, decided
//                 at). Only commits are logged: no decision record means
//                 presumed abort.
//   kCheckpoint — a full snapshot of the partition's version chains (plus
//                 the stable watermark it was taken at). Replaces the log
//                 prefix: replay starts from the latest checkpoint, and the
//                 Wal keeps its size to count what was appended since.
//
// The Wal adds group-commit batching over a Medium: appends accumulate and
// one sync covers the whole batch, beginning when the batch reaches
// `group_commit_batch` records or `group_commit_interval` after the first
// unflushed append, whichever is first. Per-record durability callbacks run
// at the covering sync's completion, in append order. Appends are whole
// frames and a sync covers whole appends, so no frame spans two of the
// medium's durable chunks. The scan checks every frame's checksum over its
// logical bytes and decodes a value held as a slice to that same payload,
// so replaying a log copies no value the log holds by reference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "obs/registry.hpp"
#include "sim/scheduler.hpp"
#include "storage/medium.hpp"

namespace str::storage {

enum class WalRecordType : std::uint8_t {
  kPrepare = 1,
  kCommit = 2,
  kAbort = 3,
  kDecision = 4,
  kCheckpoint = 5,
};

/// (key, payload) update lists as the store and protocol use them.
using WalUpdates = std::vector<std::pair<Key, SharedValue>>;

/// A record's (key, payload) pairs visited where they live instead of
/// gathered into a WalUpdates: called with `fn`, it calls fn(key, payload)
/// for each pair in order, and it visits the same pairs on every call.
using UpdateFn = std::function<void(Key, const SharedValue&)>;
using ForEachUpdate = std::function<void(const UpdateFn&)>;

/// One version chain entry in a checkpoint snapshot.
struct CheckpointVersion {
  Key key = 0;
  Timestamp ts = 0;
  VersionState state = VersionState::Committed;
  TxId writer;
  SharedValue value;
};

/// Decoded record, handed to the replay visitor. Field meaning by type:
///   kPrepare    — tx, rs, ts (proposed), updates
///   kCommit     — tx, ts (commit ts), updates (empty: outcome only)
///   kAbort      — tx
///   kDecision   — tx, ts (commit ts), at (decided at)
///   kCheckpoint — ts (stable watermark), snapshot
struct WalRecord {
  WalRecordType type = WalRecordType::kAbort;
  TxId tx;
  Timestamp rs = 0;
  Timestamp ts = 0;
  Timestamp at = 0;
  WalUpdates updates;
  std::vector<CheckpointVersion> snapshot;
};

// -- record encoders (append one framed record to `out`) --------------------

void encode_prepare(LogBuffer& out, const TxId& tx, Timestamp rs,
                    Timestamp proposed, const WalUpdates& updates);
void encode_commit(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                   const WalUpdates& updates);
/// The same record, its pairs read through `updates` (a replica's commit:
/// the store's uncommitted versions of `tx`).
void encode_commit(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                   const ForEachUpdate& updates);
void encode_abort(LogBuffer& out, const TxId& tx);
void encode_decision(LogBuffer& out, const TxId& tx, Timestamp commit_ts,
                     Timestamp at);
void encode_checkpoint(LogBuffer& out, Timestamp watermark,
                       const std::vector<CheckpointVersion>& snapshot);

struct WalScanResult {
  std::size_t valid_bytes = 0;  ///< length of the checksummed prefix
  std::size_t records = 0;      ///< records in that prefix
  bool torn = false;            ///< trailing bytes failed the scan
};

/// Checksum-scan `bytes` front to back, decoding each frame and calling
/// `visit` (when non-null) per record, stopping at the first incomplete,
/// corrupt, or malformed frame. Everything after the stop point is a torn
/// tail: exactly the durable prefix of records is recovered, never a
/// partial or bit-flipped one. A value held as a slice decodes to that
/// payload; an inline one is copied into a new payload.
WalScanResult scan_wal(const LogBuffer& bytes,
                       const std::function<void(const WalRecord&)>& visit);

/// The same scan over a medium's durable chunks, in order: the result
/// equals scanning their concatenation. Asserts that only the last chunk
/// ends mid-frame.
WalScanResult scan_wal(const DurableChunks& chunks,
                       const std::function<void(const WalRecord&)>& visit);

/// Group-commit batching over a Medium. Not thread-safe; one per log.
class Wal {
 public:
  struct Options {
    std::uint32_t group_commit_batch = 8;
    Timestamp group_commit_interval = msec(2);
  };

  /// All-nullable counter hooks (standalone logs in tests and benches
  /// leave them null). A cluster node registers them with itself through
  /// register_counters, WAL on or off, and all its logs share them.
  struct Counters {
    obs::Counter* records = nullptr;        ///< wal.records
    obs::Counter* flushes = nullptr;        ///< wal.flushes
    obs::Counter* flushed_bytes = nullptr;  ///< wal.flushed_bytes
    obs::Counter* checkpoints = nullptr;    ///< wal.checkpoints
    obs::Counter* replayed = nullptr;       ///< wal.replayed_records
    obs::Counter* torn = nullptr;           ///< wal.torn_truncations
  };

  /// Register the six "wal.*" counters in `reg`.
  static Counters register_counters(obs::Registry& reg);

  Wal(sim::Scheduler& sched, std::unique_ptr<Medium> medium, Options options,
      Counters counters);

  /// Append one framed record. `on_durable` (optional) runs when the sync
  /// covering this record completes. Returns the record's end offset in the
  /// current log coordinates (compare against durable_prefix()).
  std::uint64_t append(LogBuffer frame,
                       UniqueFunction<void()> on_durable = {});

  /// Force-flush everything appended so far; `cb` runs once the current
  /// tail is durable (immediately when the log is already clean).
  void sync(UniqueFunction<void()> cb);

  /// Fail-stop crash: the medium resolves its in-flight chunk (torn-write
  /// faults live there) and every pending durability callback is dropped.
  void crash();

  /// Byte length of the validated durable prefix (checksum scan, no
  /// decoding side effects). Crash-time fate checks compare record end
  /// offsets against this.
  std::uint64_t durable_prefix() const;

  /// Replay the validated durable prefix through `visit`, then truncate any
  /// torn tail in place: whole valid chunks stay as they are and only the
  /// last is cut. Idempotent: a second replay visits the identical record
  /// sequence. Re-reads the leading checkpoint's size from the log.
  WalScanResult replay(const std::function<void(const WalRecord&)>& visit);

  /// No unflushed records and no sync in flight.
  bool idle() const { return pending_count_ == 0 && !medium_->sync_in_flight(); }

  /// Logical end offset: durable bytes + everything buffered.
  std::uint64_t end_offset() const { return end_offset_; }

  /// Bytes appended since the log's leading checkpoint record: the whole
  /// log when it starts with another record. Kept across crash, replay
  /// and truncation; a log the medium adopted counts whole until replay()
  /// reads its first record.
  std::uint64_t appended_since_checkpoint() const {
    return end_offset_ - checkpoint_bytes_;
  }

  /// Replace the entire durable contents (a fresh checkpoint record or a
  /// compacted decision log). Atomic, rename-style; requires idle().
  void rewrite(LogBuffer bytes);

  Medium& medium() { return *medium_; }
  const Medium& medium() const { return *medium_; }

 private:
  void begin_flush();
  void arm_deadline();

  sim::Scheduler& sched_;
  std::unique_ptr<Medium> medium_;
  Options options_;
  Counters counters_;
  /// Callbacks of records in the unflushed batch / the in-flight sync.
  std::vector<UniqueFunction<void()>> pending_cbs_;
  std::vector<UniqueFunction<void()>> inflight_cbs_;
  std::uint32_t pending_count_ = 0;
  std::uint64_t end_offset_ = 0;
  /// Size of the checkpoint frame the durable log starts with, or 0.
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t inflight_bytes_ = 0;
  bool force_next_ = false;  ///< sync() arrived while a flush was in flight
  /// Invalidates the armed deadline timer (bumped by begin_flush and crash).
  std::uint64_t gen_ = 0;
  bool deadline_armed_ = false;
};

}  // namespace str::storage
