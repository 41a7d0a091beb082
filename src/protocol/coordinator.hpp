// Transaction coordinator (Algorithm 1).
//
// One coordinator runs on each node and owns the records of every
// transaction originated there. It implements:
//
//  * startTx / read / write / commit with the SPSI bookkeeping:
//    OLCSet and FFC maintenance, the speculation gate
//    (min OLCSet >= FFC, Alg. 1 l. 15), and node-local data-dependency
//    edges with cascading aborts;
//  * the synchronous local certification (local 2PC over the node's
//    replicas plus the cache partition for remote keys of unsafe
//    transactions);
//  * the asynchronous global certification: prepares to remote masters,
//    synchronous master->slave replication acks, the SPSI-4 wait for data
//    dependencies, final commit-timestamp computation and the commit/abort
//    fan-out;
//  * dependents resolution on final commit (Alg. 1 lines 37-43): a reader
//    whose snapshot no longer admits the writer's final timestamp is
//    aborted (misspeculation), everyone else inherits the commit.
//
// All read futures handed out are always eventually fulfilled — with
// aborted=true if the transaction dies first — so no workload coroutine is
// ever left suspended.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "protocol/messages.hpp"
#include "protocol/partition_map.hpp"
#include "sim/coro.hpp"
#include "storage/decision_log.hpp"
#include "storage/wal.hpp"
#include "store/mvstore.hpp"
#include "txn/txn_record.hpp"

namespace str::protocol {

class Node;

/// Registry name of the per-reason abort counter: "txn.aborts.<reason>",
/// the reason spelled as to_string(r) with '_' for '-'.
std::string abort_counter_name(AbortReason r);

/// Group `rec`'s write set by partition into `rec.local_parts` (partitions
/// replicated at `origin`), `rec.remote_parts` (the others) and, with
/// `with_updates`, `rec.cache_writes`. The lists must be empty.
///
/// Order rule: each list holds its partitions newest first touch first — a
/// partition's first write puts it at the front. This order drives every
/// fan-out (local certification, prepares and replicates, commit and abort
/// messages), so it is part of the determinism contract
/// (docs/PERFORMANCE.md). When every partition id is below 13 it equals the
/// iteration order of a default libstdc++ std::unordered_map<PartitionId,
/// ...> filled in write order (tests/protocol/fanout_order_test.cpp).
///
/// With `with_updates`, each partition's writes (payload handles, in write
/// order) go into one list reserved to their exact number. Without, only
/// partition ids and counts are set: an abort before the commit request
/// needs no more.
void group_writes(txn::TxnRecord& rec, const PartitionMap& pmap,
                  NodeId origin, bool with_updates);

class Coordinator {
 public:
  explicit Coordinator(Node& node);

  // -- client-facing API ---------------------------------------------------

  /// Start a transaction. `first_activation` carries the first attempt's
  /// start time across retries (0 means "this is the first attempt").
  TxId begin(Timestamp first_activation = 0);

  /// Snapshot read; the future is fulfilled when the value is available and
  /// the speculation gate admits it (or immediately with aborted=true).
  sim::Future<txn::ReadResult> read(const TxId& tx, Key key);

  /// Buffered write (visible to this transaction's own reads only). The
  /// handle itself is stored and later shared by every replica of the
  /// write; the Value overload wraps its argument once.
  void write(const TxId& tx, Key key, SharedValue value);
  void write(const TxId& tx, Key key, Value value);

  /// Request commit; the future resolves at the final outcome.
  sim::Future<txn::TxFinalResult> commit(const TxId& tx);

  /// Future resolving at the transaction's final outcome, registrable at any
  /// time (typically right after begin()). Client drivers use this so they
  /// learn about aborts even when the transaction body returned early.
  sim::Future<txn::TxFinalResult> outcome_future(const TxId& tx);

  /// Workload-initiated rollback.
  void user_abort(const TxId& tx);

  bool is_aborted(const TxId& tx) const;
  Timestamp snapshot_of(const TxId& tx) const;

  // -- node/network entry points -------------------------------------------

  void on_read_reply(ReadReply reply);
  void on_prepare_reply(PrepareReply reply);

  /// A participant holding a prepared-but-undecided transaction of this
  /// coordinator asks for its fate. Answered from the live record, from the
  /// durable decision log, or — with neither — as presumed abort. In quorum
  /// mode a request for ANOTHER coordinator's transaction is a census probe
  /// against this node's replica copy; it is answered with a
  /// DecisionReplicateAck (kCommitted/kNoRecord) and never presumes abort.
  void on_decision_request(DecisionRequest req);

  /// Replica-group member entry point: durably append a copy of the
  /// origin's commit decision and ack once it is on stable storage
  /// (docs/DURABILITY.md §8). Copies for a crashed origin are dropped — the
  /// census counts a frozen copy set.
  void on_decision_replicate(const DecisionReplicate& m);

  /// Origin entry point: a member acked a durable copy (kind == kAck).
  void on_decision_replicate_ack(const DecisionReplicateAck& m);

  /// Abort a transaction of this node (also called by partition actors when
  /// replicated remote pre-commits evict local speculation). `cascade_of`
  /// names the parent transaction when `reason` is CascadingAbort, so the
  /// tracer can attribute cascade trees to their root cause.
  void abort_tx(const TxId& tx, AbortReason reason,
                const TxId& cascade_of = kNoTx);

  /// Fail-stop crash: every live transaction aborts (reason NodeCrash) with
  /// its decision durably logged; volatile read/prepare bookkeeping clears.
  /// next_seq_ survives — TxIds stay unique across restarts. In WAL mode a
  /// transaction in its commit-durability window instead resolves from the
  /// decision log's durable prefix: decision durable => it committed (the
  /// restart replay will install its writes), else presumed abort; and
  /// decided_ itself is wiped — replay_decisions() rebuilds it.
  void on_crash();

  /// Periodic upkeep: prune decision-log entries past their retention.
  void maintain(Timestamp now);

  // -- outcome accounting (docs/OBSERVABILITY.md, "Transaction outcomes") ---

  /// Count a final commit reached at `at` in this node's registry, with its
  /// final latency from `first_activation` and, when it was externalized
  /// (`externalized_at` != 0), its speculative latency. An outcome timed
  /// before the last warmup cutover (an in-doubt resolution registered
  /// during the warmup) counts only in lifetime_commits().
  void count_commit(Timestamp at, Timestamp first_activation,
                    Timestamp externalized_at);
  /// Count a final abort reached at `at`; an externalized attempt that
  /// aborts is an external misspeculation. Gated like count_commit.
  void count_abort(Timestamp at, AbortReason reason, bool externalized);

  /// Commits counted here since construction, never cut at the warmup: the
  /// self-tuner's measurement source.
  std::uint64_t lifetime_commits() const { return lifetime_commits_; }

  // -- durability (docs/DURABILITY.md; WAL mode only) ------------------------

  /// Attach the node's decision log. Commit decisions append here; the sync
  /// completing is the transaction's commit point.
  void set_decision_wal(storage::Wal* wal) { decision_wal_ = wal; }

  /// Attach the quorum wrapper around the decision log (quorum mode only).
  /// With it, the commit point moves from "local decision fsync" to
  /// "decision durable on a quorum of the replica group".
  void set_decision_log(storage::ReplicatedDecisionLog* rlog) {
    rlog_ = rlog;
  }

  /// Quorum barriers still waiting on member acks (tests/quiesce).
  std::size_t pending_quorum_barriers() const {
    return rlog_ == nullptr ? 0 : rlog_->pending_count();
  }

  /// Rebuild decided_ from the decision log (restart, before partition
  /// replay — locally-coordinated commit records are validated against it).
  void replay_decisions();

  /// True when decided_ records `tx` as Committed (replayed or live).
  bool decided_committed(const TxId& tx) const {
    auto it = decided_.find(tx);
    return it != decided_.end() &&
           it->second.decision == TxDecision::Committed;
  }

  /// Look up tx in decided_ (own decisions and, in quorum mode, replica
  /// copies of other coordinators'). The census consults this on the
  /// probing node first — self-membership and replayed copies answer
  /// without a network hop.
  bool find_decision(const TxId& tx, TxDecision* decision,
                     Timestamp* commit_ts) const {
    auto it = decided_.find(tx);
    if (it == decided_.end()) return false;
    if (decision != nullptr) *decision = it->second.decision;
    if (commit_ts != nullptr) *commit_ts = it->second.commit_ts;
    return true;
  }

  txn::TxnRecord* find(const TxId& tx);
  const txn::TxnRecord* find(const TxId& tx) const;

  std::size_t live_transactions() const { return txns_.size(); }

  /// Lowest read snapshot among this node's live transactions (kTsInfinity
  /// when none). Feeds the cluster-wide stable-snapshot watermark: no
  /// request is ever sent for a dead transaction, so every future read of
  /// this coordinator carries a snapshot at or above this bound.
  Timestamp min_active_rs() const {
    Timestamp m = kTsInfinity;
    for (const auto& [tx, rec] : txns_) m = std::min(m, rec->rs);
    return m;
  }

 private:
  /// A read value (from a local replica, the cache, or a remote reply) is
  /// ready: apply OLCSet/FFC updates, dependency edges, then pass the gate.
  /// `read_span`/`issued_at` identify the open Read span begun in read()
  /// (0 when tracing was off at issue time).
  void on_read_value(const TxId& tx, Key key,
                     const store::StoreReadResult& r,
                     sim::Promise<txn::ReadResult> promise,
                     std::uint64_t read_span, Timestamp issued_at);

  /// Deliver `result` if the gate is open, otherwise park it. History read
  /// events are recorded at delivery (a value held at the gate and never
  /// released is not an observation).
  void gate_or_deliver(txn::TxnRecord& rec, Key key, txn::ReadResult result,
                       sim::Promise<txn::ReadResult> promise,
                       std::uint64_t read_span, Timestamp issued_at);

  void record_read_event(const TxId& tx, Key key, const TxId& writer,
                         Timestamp version_ts, bool speculative);

  void count_read(bool speculative) {
    c_reads_->inc();
    if (speculative) c_spec_reads_->inc();
  }

  /// Re-check parked gate waiters after OLCSet/FFC changed.
  void reeval_gate(txn::TxnRecord& rec);

  /// Synchronous local certification over the record's grouped write set
  /// (group_writes, at the commit request); returns false (and aborts) on
  /// conflict. On success the transaction is LocalCommitted.
  bool local_certification(txn::TxnRecord& rec);

  void start_global_certification(txn::TxnRecord& rec);

  /// Commit once prepares are in and dependencies resolved (SPSI-4).
  void maybe_finalize(txn::TxnRecord& rec);

  void finalize_commit(txn::TxnRecord& rec);

  /// Everything in finalize_commit after the decision is (or needs no)
  /// durable record: store application, fan-out, dependents, history,
  /// metrics, client delivery. In WAL mode this is the decision sync's
  /// completion callback; without a WAL it runs inline.
  void finalize_commit_apply(txn::TxnRecord& rec);

  /// Crash-time teardown of a transaction caught in its commit-durability
  /// window (phase == Committed, apply not yet run). `durable` says whether
  /// its decision record made the log's validated prefix.
  void crash_teardown_committed(txn::TxnRecord& rec, bool durable);

  /// Alg. 1 lines 37-43: resolve or abort dependents at final commit.
  void resolve_dependents_on_commit(txn::TxnRecord& rec);

  void deliver_outcome(txn::TxnRecord& rec);

  /// Wire mode: drop the payload-table entries the attempt's prepares and
  /// replicates recorded, one per partition's update list
  /// (wire/payload_table.hpp). At the final outcome every expected receiver
  /// has decoded its frame, and the payloads may outlive the attempt (a
  /// workload shares one across the attempts of a transaction), so the
  /// entries would otherwise stay for as long as any list holder does.
  void forget_payloads(const txn::TxnRecord& rec);

  /// Fulfill every outstanding read with aborted=true.
  void fail_outstanding_reads(txn::TxnRecord& rec);

  void erase(const TxId& tx);

  bool spec_active() const;

  struct PendingRemoteRead {
    TxId tx;
    Key key = 0;
    sim::Promise<txn::ReadResult> promise;
    // Retry state (RecoveryConfig; unused when recovery is disabled).
    Timestamp rs = 0;
    std::uint32_t attempts = 0;
    std::span<const NodeId> candidates;  ///< the partition's read_order row
    std::uint64_t read_span = 0;         ///< open Read span (0 = untraced)
    Timestamp issued_at = 0;
  };

  /// Failover order of a remote read of `pid`: its replicas by one-way
  /// latency from this node's region, ties in partition-map order. Empty
  /// for partitions replicated here, which are read locally.
  std::span<const NodeId> read_order(PartitionId pid) const {
    return {read_order_.data() + read_order_at_[pid],
            read_order_.data() + read_order_at_[pid + 1]};
  }

  /// Dispatch the read to its current candidate replica (retries rotate
  /// through `candidates`, skipping nodes known down).
  void send_read_request(std::uint64_t req_id, const PendingRemoteRead& p);
  void arm_read_timer(std::uint64_t req_id);

  /// The prepare, or the replicate fan-out to `slaves`, of one partition
  /// of the global certification (no bookkeeping — start_global_certification
  /// and resend_prepares own the expected/awaiting accounting).
  void send_prepare(const txn::TxnRecord& rec, PartitionId pid,
                    SharedUpdates updates);
  void send_replicates(const txn::TxnRecord& rec, PartitionId pid,
                       std::span<const NodeId> slaves, SharedUpdates updates);

  /// Re-send the fan-out to every (partition, node) that has not acked.
  void resend_prepares(txn::TxnRecord& rec);
  void arm_prepare_timer(const TxId& tx);

  /// Bounded exponential backoff: request_timeout << attempt, capped.
  Timestamp backoff(std::uint32_t attempt) const;

  /// Fold the record's phase timestamps into the "phase.*" timers at the
  /// final outcome (`final_at` = commit/abort time).
  void record_phase_timers(const txn::TxnRecord& rec, Timestamp final_at);

  Node& node_;
  // Cached observability instruments (resolved once at construction; see
  // docs/OBSERVABILITY.md for the phase definitions).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* c_begins_ = nullptr;
  obs::Counter* c_commits_ = nullptr;
  obs::Counter* c_aborts_ = nullptr;
  obs::Gauge* g_live_ = nullptr;
  obs::Timer* t_first_read_ = nullptr;
  obs::Timer* t_gate_stall_ = nullptr;
  obs::Timer* t_local_cert_ = nullptr;
  obs::Timer* t_wan_prepare_ = nullptr;
  obs::Timer* t_dep_wait_ = nullptr;
  obs::Timer* t_lock_hold_ = nullptr;
  obs::Timer* t_lock_hold_total_ = nullptr;
  obs::Timer* t_commit_snap_dist_ = nullptr;
  obs::Counter* c_rpc_timeouts_ = nullptr;
  obs::Counter* c_rpc_retries_ = nullptr;
  // Outcome instruments (count_commit / count_abort / count_read).
  std::array<obs::Counter*,
             static_cast<std::size_t>(AbortReason::NodeCrash) + 1>
      c_aborts_by_reason_{};  ///< index = AbortReason (None stays null)
  obs::Counter* c_externalized_ = nullptr;
  obs::Counter* c_ext_misspeculations_ = nullptr;
  obs::Counter* c_reads_ = nullptr;
  obs::Counter* c_spec_reads_ = nullptr;
  obs::Timer* t_final_latency_ = nullptr;
  obs::Timer* t_spec_latency_ = nullptr;
  std::uint64_t lifetime_commits_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_read_id_ = 1;
  std::unordered_map<TxId, std::unique_ptr<txn::TxnRecord>, TxIdHash> txns_;
  /// Free list of finished records: a TxnRecord is a fat object (write
  /// buffer, SPSI sets, certification bookkeeping — all flat vectors), so
  /// recycling one keeps every container's capacity and makes begin()
  /// allocation-free in steady state. Records are reset() on release.
  std::vector<std::unique_ptr<txn::TxnRecord>> record_pool_;
  std::unordered_map<std::uint64_t, PendingRemoteRead> pending_remote_;
  /// read_order() rows, one per partition, built at construction: row p is
  /// read_order_[read_order_at_[p], read_order_at_[p + 1]).
  std::vector<NodeId> read_order_;
  std::vector<std::uint32_t> read_order_at_;

  /// Durable decision log (the WAL-with-data assumption, docs/FAULTS.md):
  /// survives crashes, answers DecisionRequests, pruned by retention.
  /// Populated only when recovery is enabled.
  struct Decision {
    TxDecision decision = TxDecision::Unknown;
    Timestamp commit_ts = 0;
    Timestamp at = 0;  ///< when decided (for retention pruning)
  };
  std::unordered_map<TxId, Decision, TxIdHash> decided_;
  /// Node-level decision log (owned by the Node); nullptr when WAL is off.
  /// With it attached, decided_ stops being magically durable: a crash wipes
  /// it and replay_decisions() rebuilds exactly the synced prefix.
  storage::Wal* decision_wal_ = nullptr;
  /// Quorum wrapper (owned by the Node); nullptr unless the quorum commit
  /// point is on. Appends still land in decision_wal_ — this only tracks
  /// the member-ack barrier and retransmits.
  storage::ReplicatedDecisionLog* rlog_ = nullptr;
};

/// Thin value handle passed to workload transaction bodies.
class TxnHandle {
 public:
  TxnHandle() = default;
  TxnHandle(Coordinator* coord, TxId id) : coord_(coord), id_(id) {}

  sim::Future<txn::ReadResult> read(Key key) { return coord_->read(id_, key); }
  /// Buffer a write of `value`; the handle is shared, never copied, by every
  /// replica of the write.
  void write(Key key, SharedValue value) {
    coord_->write(id_, key, std::move(value));
  }
  /// Wraps `value` in a payload handle once.
  void write(Key key, Value value) {
    write(key, std::make_shared<const Value>(std::move(value)));
  }
  sim::Future<txn::TxFinalResult> commit() { return coord_->commit(id_); }
  void abort() { coord_->user_abort(id_); }

  bool aborted() const { return coord_->is_aborted(id_); }
  TxId id() const { return id_; }
  Timestamp snapshot() const { return coord_->snapshot_of(id_); }

 private:
  Coordinator* coord_ = nullptr;
  TxId id_;
};

}  // namespace str::protocol
