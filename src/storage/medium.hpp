// Durable media for the write-ahead log (docs/DURABILITY.md).
//
// A Medium is an append-only log device with an explicit durability
// boundary: append() buffers frames, sync() begins making every buffered
// byte durable and runs a completion callback once they are. Nothing
// buffered survives a crash; bytes covered by a *completed* sync always do;
// the chunk covered by an *in-flight* sync is where torn writes live — a
// crash may persist any prefix of it, possibly with a flipped bit
// (net::StorageFaults::torn_write_prob).
//
// Frames and durable chunks are LogBuffers (storage/log_buffer.hpp): the
// non-payload bytes plus one slice per value payload, held by reference,
// so appending a record, syncing it and checkpointing copy no value byte.
// The durable contents are an ordered list of chunks whose logical bytes,
// concatenated, are the log: a completing sync moves its in-flight buffer
// onto the list, or, when neither it nor the last chunk holds a slice,
// appends it to the last chunk (the decision logs sync one 24-byte record
// at a time). reset_durable() installs a single chunk, truncate_durable()
// keeps whole chunks and cuts the last, and a torn crash appends the
// surviving prefix as its own chunk. The log layer appends whole frames
// and each sync covers whole appends, so no frame spans two chunks and
// only the last chunk can end mid-frame.
//
// Logical bytes are materialized in two places only: the torn tail, which
// is flattened before its bits are flipped so that a shared payload is
// never written through, and the FileMedium mirror.
//
// Two backends:
//  * SimMedium  — deterministic in-memory device inside the DES. Sync
//    completion is scheduled after a modeled fsync latency, so group-commit
//    batching has a measurable cost; crash() resolves the in-flight chunk
//    from the cluster's storage-fault RNG stream. The durable bytes live in
//    this process and survive crash_node/restart_node.
//  * FileMedium — same semantics, additionally mirroring the durable bytes
//    to a real file (tools and cross-process inspection). Constructing it
//    over an existing file adopts the file's contents as the durable state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/scheduler.hpp"
#include "storage/log_buffer.hpp"

namespace str::storage {

/// Torn-write fault knobs, resolved at crash time (see Medium::crash).
/// `rng` is a shared per-cluster stream: media draw from it only when a
/// crash actually catches a sync in flight, so fault-free runs (and runs
/// that never crash mid-flush) consume nothing.
struct TornWriteFault {
  double prob = 0.0;
  Rng* rng = nullptr;
};

/// Durable contents in order: their logical bytes, concatenated, are the log.
using DurableChunks = std::vector<LogBuffer>;

class Medium {
 public:
  virtual ~Medium() = default;

  /// Buffer a frame at the tail. Not durable until a later sync() completes.
  virtual void append(LogBuffer frame) = 0;

  /// Begin making every currently-buffered byte durable; `done` runs when
  /// they are (after the modeled fsync latency). At most one sync may be in
  /// flight — the WAL layer serializes. Bytes appended while a sync is in
  /// flight belong to the next sync.
  virtual void sync(UniqueFunction<void()> done) = 0;

  /// The durable contents (what a restart reads back). The last chunk may
  /// end in a torn tail after a crash — replay checksum-scans and
  /// truncates.
  virtual const DurableChunks& durable_chunks() const = 0;

  /// Total logical bytes across durable_chunks().
  virtual std::size_t durable_size() const = 0;

  /// Heap the durable chunks hold: their non-payload bytes, slice tables
  /// and the chunk list. Payloads are shared with the store and are not
  /// counted.
  std::size_t held_bytes() const;

  /// Atomically replace the durable contents with the single chunk `bytes`
  /// (checkpoint truncation, decision-log compaction). Models
  /// write-new-file + rename; requires no sync in flight and no buffered
  /// bytes.
  virtual void reset_durable(LogBuffer bytes) = 0;

  /// Cut the durable contents to their first `size` bytes (torn-tail
  /// repair): whole chunks before the cut are kept as they are. `size` is a
  /// frame boundary. Same preconditions as reset_durable().
  virtual void truncate_durable(std::size_t size) = 0;

  /// Fail-stop crash: buffered bytes vanish; an in-flight sync resolves to
  /// a torn tail with TornWriteFault::prob (a random nonempty prefix of the
  /// chunk persists, possibly with one bit flipped) and is otherwise lost
  /// entirely. The pending completion callback never runs.
  virtual void crash() = 0;

  virtual bool sync_in_flight() const = 0;
  virtual std::size_t buffered_bytes() const = 0;
};

/// Deterministic in-memory medium driven by the DES scheduler. A null
/// scheduler makes sync() complete synchronously (standalone/tool use).
class SimMedium : public Medium {
 public:
  SimMedium(sim::Scheduler* sched, Timestamp fsync_latency,
            TornWriteFault torn);

  void append(LogBuffer frame) override;
  void sync(UniqueFunction<void()> done) override;
  const DurableChunks& durable_chunks() const override { return chunks_; }
  std::size_t durable_size() const override { return durable_size_; }
  void reset_durable(LogBuffer bytes) override;
  void truncate_durable(std::size_t size) override;
  void crash() override;
  bool sync_in_flight() const override { return syncing_; }
  std::size_t buffered_bytes() const override {
    return pending_.size() + inflight_.size();
  }

 protected:
  /// Hooks for backends that mirror the durable bytes somewhere real.
  /// on_durable_appended runs when bytes join the tail: a completed sync's
  /// chunk, or a crash's torn tail (empty when the crash lost the whole
  /// in-flight chunk). on_durable_reset runs after reset_durable() and
  /// truncate_durable().
  virtual void on_durable_appended(const LogBuffer& /*chunk*/) {}
  virtual void on_durable_reset() {}

  /// Install durable contents without the mirror hooks (backend
  /// construction: adopting an existing file's bytes must not rewrite it).
  void adopt_durable(LogBuffer bytes);

 private:
  void complete_sync();
  /// Run the mirror hook, then add `chunk` to the durable list: as a chunk
  /// of its own, or appended to the last chunk when `coalesce` is set and
  /// neither holds a slice.
  void push_durable(LogBuffer chunk, bool coalesce);

  sim::Scheduler* sched_;
  Timestamp fsync_latency_;
  TornWriteFault torn_;
  DurableChunks chunks_;
  std::size_t durable_size_ = 0;
  LogBuffer pending_;   ///< appended, not yet covered by a sync
  LogBuffer inflight_;  ///< the chunk the in-flight sync covers
  UniqueFunction<void()> done_;
  bool syncing_ = false;
  /// Bumped on crash: a scheduled completion from before the crash no-ops.
  std::uint64_t epoch_ = 0;
};

/// SimMedium that mirrors the durable bytes to a real file. The file always
/// holds exactly the concatenated logical bytes of the durable chunks: each
/// newly durable chunk (torn tails included) is appended, payloads written
/// from their shared buffers, and only reset_durable() and
/// truncate_durable() rewrite the whole file. An existing file is adopted
/// as the initial durable state: one flat chunk.
class FileMedium : public SimMedium {
 public:
  FileMedium(std::string path, sim::Scheduler* sched, Timestamp fsync_latency,
             TornWriteFault torn);

  /// False once any file write failed; the medium then continues in-memory.
  bool io_ok() const { return io_ok_; }
  const std::string& path() const { return path_; }

 protected:
  void on_durable_appended(const LogBuffer& chunk) override;
  void on_durable_reset() override;

 private:
  std::string path_;
  bool io_ok_ = true;
};

}  // namespace str::storage
