// Per-transaction coordinator state (Algorithm 1's transaction object).
//
// A record lives in its coordinator's transaction table from startTx until
// its final outcome has been delivered and every dependent has been
// resolved. It carries the write buffer, the SPSI speculation-safety state
// (OLCSet / FFC, Alg. 1 lines 4-5 and 13-15), the node-local dependency
// edges, and the bookkeeping of the distributed certification.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "sim/coro.hpp"

namespace str::txn {

/// What a transaction body sees from a completed read.
struct ReadResult {
  bool aborted = false;  ///< the reading transaction was aborted mid-read
  bool found = false;    ///< a version existed at or below the snapshot
  Value value;
  TxId writer;
  Timestamp version_ts = 0;
  bool speculative = false;  ///< observed a local-committed (not final) version
};

/// Final outcome delivered to the client driver.
struct TxFinalResult {
  TxOutcome outcome = TxOutcome::Aborted;
  AbortReason abort_reason = AbortReason::None;
  Timestamp commit_ts = 0;
  /// Ext-Spec: this attempt was externalized (speculatively committed to the
  /// client) at this time before its final outcome; 0 if never externalized.
  Timestamp externalized_at = 0;
};

enum class TxnPhase : std::uint8_t {
  Active,           ///< executing reads/writes
  LocalCommitted,   ///< passed local certification, in global certification
  Committed,        ///< final committed
  Aborted,
};

struct TxnRecord {
  TxId id;
  NodeId origin = kInvalidNode;
  Timestamp rs = 0;  ///< read snapshot
  TxnPhase phase = TxnPhase::Active;
  AbortReason abort_reason = AbortReason::None;
  Timestamp lc = 0;  ///< local-commit timestamp (valid from LocalCommitted)
  Timestamp fc = 0;  ///< final-commit timestamp (valid once Committed)

  /// Time of the first activation of this logical transaction (carried
  /// across retries by the client; used for final-latency metrics).
  Timestamp first_activation = 0;
  /// Time this attempt started.
  Timestamp attempt_start = 0;

  // -- per-phase latency instrumentation (virtual time; 0 = never) --------
  // Populated by the coordinator and folded into the origin node's
  // "phase.*" registry timers at the final outcome (see docs/OBSERVABILITY.md
  // for the phase definitions).
  Timestamp first_read_ready_at = 0;  ///< first read value delivered
  Timestamp gate_stall_total = 0;     ///< accumulated time parked at the gate
  Timestamp commit_requested_at = 0;  ///< client called commit()
  Timestamp cert_at = 0;              ///< local certification passed
                                      ///< (pre-commit locks held from here)
  Timestamp visible_at = 0;  ///< writes first observable by local readers
                             ///< (= cert_at under speculation, final commit
                             ///< otherwise); measures *effective* lock hold
  Timestamp prepares_sent_at = 0;  ///< global certification fan-out started
  Timestamp prepares_done_at = 0;  ///< last prepare/replicate ack arrived
  Timestamp dep_wait_start = 0;    ///< finalize first blocked on SPSI-4 deps

  // -- causal-span bookkeeping (0/empty when tracing is off) ---------------
  /// Root span id of this attempt; parent of every other span of the txn.
  std::uint64_t trace_span = 0;
  /// One certification leg span per expected (partition, node) ack. The
  /// span id rides the Prepare/ReplicateRequest sent to the direct target
  /// and closes on the first matching ack.
  struct LegSpan {
    PartitionId partition = kInvalidPartition;
    NodeId node = kInvalidNode;
    std::uint64_t span = 0;
    Timestamp sent_at = 0;
  };
  std::vector<LegSpan> leg_spans;

  std::uint64_t leg_span_of(PartitionId pid, NodeId node) const {
    for (const LegSpan& l : leg_spans) {
      if (l.partition == pid && l.node == node) return l.span;
    }
    return 0;
  }

  // -- write buffer -------------------------------------------------------
  /// (key, payload) pairs in first-write order (deterministic iteration);
  /// keys unique, re-writes overwrite in place. Write sets are small, so
  /// lookups are a linear scan and the buffer is one flat allocation that
  /// pooled records reuse. The payloads are the workload's handles.
  UpdateList writes;

  /// One partition's share of the write set.
  struct PartitionWrites {
    PartitionId partition = kInvalidPartition;
    std::uint32_t count = 0;  ///< writes to the partition
    /// The writes in first-write order, in one list reserved to `count`
    /// and shared by every message of the fan-out; null when the set was
    /// grouped for an abort only.
    std::shared_ptr<UpdateList> updates;
  };
  /// The write set grouped by partition (protocol::group_writes), once per
  /// transaction: `local_parts` are the partitions replicated at the
  /// origin, `remote_parts` the others, each newest first touch first;
  /// `cache_writes` are the remote partitions' writes in write order. The
  /// certification fan-out, the abort and the apply all walk these lists.
  SmallVec<PartitionWrites, 4> local_parts;
  SmallVec<PartitionWrites, 2> remote_parts;
  UpdateList cache_writes;

  /// Grouped already (an empty write set never needs the lists).
  bool grouped() const { return !local_parts.empty() || !remote_parts.empty(); }

  // -- SPSI speculation-safety state (Alg. 1) -----------------------------
  /// OLCSet: writer -> recorded OLC value. Only finite entries are stored;
  /// an empty set means "{<bottom, infinity>}".
  FlatMap<TxId, Timestamp> olc_set;
  Timestamp ffc = 0;  ///< Freshest Final Commit observed

  /// Local-committed transactions this one speculatively read from and whose
  /// final outcome is still unknown (data dependencies, SPSI-4).
  FlatSet<TxId> unresolved_deps;
  /// Every local-committed transaction in this one's speculative snapshot,
  /// directly or transitively (a speculative read from T inherits T's set;
  /// T's set is final because T finished executing before local commit).
  /// Used as the write-write "chaining" set during local certification:
  /// overwriting a version that is atomically part of our own snapshot is
  /// not a concurrent conflict.
  FlatSet<TxId> snapshot_lc_writers;
  /// Local transactions that speculatively read from this one.
  std::vector<TxId> dependents;

  // -- certification bookkeeping ------------------------------------------
  bool commit_requested = false;  ///< client called commit()
  bool unsafe_txn = false;        ///< updated keys not replicated locally
  int awaiting_prepares = 0;      ///< outstanding prepare/replicate acks
  Timestamp max_proposed_ts = 0;  ///< running max of prepare proposals
  /// Remote nodes that hold replicas of updated partitions (commit/abort
  /// fan-out targets).
  FlatSet<NodeId> remote_replica_nodes;
  bool externalized = false;      ///< Ext-Spec surfaced results already
  Timestamp externalized_at = 0;
  /// WAL mode: end offset of this transaction's decision-log record (0 =
  /// not yet appended). At crash time the coordinator compares it against
  /// the decision log's validated durable prefix to decide the transaction's
  /// fate: decision durable => commit survives, else presumed abort.
  std::uint64_t wal_decision_end = 0;

  // -- timeout/retry bookkeeping (RecoveryConfig; unused when disabled) ---
  /// Every (partition, node) expected to ack the prepare/replicate fan-out,
  /// and the subset that acked. Ack dedup (duplicated deliveries, re-sent
  /// prepares) keys on the pair; the missing set drives timeout re-sends.
  FlatSet<std::pair<PartitionId, NodeId>> prepare_expected;
  FlatSet<std::pair<PartitionId, NodeId>> prepare_acks;
  std::uint32_t prepare_attempts = 0;  ///< timeout re-sends so far
  std::uint64_t prepare_round = 0;     ///< invalidates stale prepare timers

  // -- suspended consumers -------------------------------------------------
  /// Reads whose value is known but which wait at the speculation gate
  /// (min OLCSet >= FFC, Alg. 1 line 15). The pending history event is
  /// recorded only if the value is actually delivered — a gated value the
  /// transaction never receives is not an observation.
  struct GateWaiter {
    sim::Promise<ReadResult> promise;
    ReadResult result;
    Key key = 0;
    Timestamp parked_at = 0;  ///< when the value was held at the gate
    std::uint64_t read_span = 0;  ///< open Read span, closed at delivery
    Timestamp read_issued_at = 0;
  };
  std::vector<GateWaiter> gate_waiters;
  /// Every read promise handed out and not yet fulfilled; all are resolved
  /// with aborted=true if the transaction aborts (so no coroutine is ever
  /// left suspended forever).
  std::vector<sim::Promise<ReadResult>> outstanding_reads;
  /// Fulfilled exactly once with the final outcome.
  std::vector<sim::Promise<TxFinalResult>> outcome_waiters;

  /// min over OLCSet values; infinity when the set is empty.
  Timestamp olc_min() const {
    Timestamp m = kTsInfinity;
    for (const auto& [tx, v] : olc_set) m = std::min(m, v);
    return m;
  }

  /// The speculation gate of Alg. 1 line 15.
  bool gate_open() const { return olc_min() >= ffc; }

  bool finished() const {
    return phase == TxnPhase::Committed || phase == TxnPhase::Aborted;
  }

  void add_dependent(const TxId& reader);

  /// Return the record to its default-constructed state while keeping every
  /// container's capacity, so a pooled record (Coordinator's free list)
  /// reaches steady state with no per-transaction allocations. Must cover
  /// every field — a survivor would leak one transaction's state into the
  /// next and break determinism.
  void reset();
};

}  // namespace str::txn
