// One partition replica hosted on a node (Algorithm 2).
//
// The actor wraps the multi-version store with the protocol behaviours:
// snapshot-read classification with reader parking, master-side
// certification of remote prepares, slave-side application of replicated
// pre-commits (evicting conflicting local speculation), commit/abort
// application with parked-reader resolution, the Clock-SI future-snapshot
// read delay, and tombstones that make late prepares/replicates of aborted
// transactions harmless under message reordering.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "obs/trace.hpp"
#include "protocol/messages.hpp"
#include "protocol/tombstone_table.hpp"
#include "storage/wal.hpp"
#include "store/mvstore.hpp"

namespace str::protocol {

class Node;

class PartitionActor {
 public:
  PartitionActor(Node& node, PartitionId pid, bool is_master);

  PartitionId partition() const { return pid_; }
  bool is_master() const { return is_master_; }
  store::PartitionStore& store() { return store_; }
  const store::PartitionStore& store() const { return store_; }

  /// Seed a key before the run starts. With the WAL on, the seed is also
  /// logged as a commit by the sentinel environment transaction `seed_tx`
  /// (node = kInvalidNode, unique seq) so that replay after a crash
  /// restores preloaded data — loads are durable like any other commit.
  /// The store and the seed record alias `value`.
  void load(Key key, const SharedValue& value, const TxId& seed_tx);

  /// Serve a read for a transaction of this node. `deliver` runs
  /// immediately for committed hits and speculative hits (the coordinator
  /// decides whether speculation is allowed); blocked reads park and deliver
  /// later. Reads never fail — at worst they wait.
  void serve_local_read(const TxId& reader, Key key, Timestamp rs,
                        UniqueFunction<void(store::StoreReadResult)> deliver);

  /// Remote read entry point; replies over the network. Applies the
  /// read-delay rule when rs is ahead of this node's physical clock.
  void handle_remote_read(ReadRequest req);

  /// Local-certification prepare (synchronous, same node). `chain_allowed`
  /// lists the preparing transaction's data dependencies.
  store::PrepareResult prepare_local(const TxId& tx, Timestamp rs,
                                     const UpdateList& updates,
                                     const FlatSet<TxId>* chain_allowed);

  /// Transition tx's pre-committed versions to local-committed (end of the
  /// synchronous local 2PC) and wake readers that may now speculate.
  void apply_local_commit(const TxId& tx, Timestamp lc);

  /// Master-side global certification of a remote transaction's updates.
  /// Duplicate-delivery tolerant: the request is taken by reference and
  /// never consumed, so a network-duplicated closure can replay it intact.
  void handle_prepare(const PrepareRequest& req);

  /// Slave-side application of a master-certified pre-commit. Duplicate
  /// deliveries re-ack idempotently from the stored proposal.
  void handle_replicate(const ReplicateRequest& req);

  /// Final commit/abort application (from the coordinator's fan-out or the
  /// local synchronous path). In WAL mode a participant appends its record
  /// lazily (no ack depends on it): an abort, or a commit that carries the
  /// outcome only, its writes being in the logged prepare. The
  /// coordinator's durability barrier already logged its own replicas'
  /// commit records (log_commit).
  void apply_commit(const TxId& tx, Timestamp ct);
  void apply_abort(const TxId& tx);

  // -- durability (docs/DURABILITY.md; all no-ops when the WAL is off) ------

  /// The coordinator's commit durability barrier: append tx's commit record
  /// (commit ts + full update list: local prepares are never logged) and
  /// run `on_durable` once it is on stable storage. WAL mode only.
  void log_commit(const TxId& tx, Timestamp ct,
                  UniqueFunction<void()> on_durable);

  /// Rebuild the store from the WAL (restart). Scans checkpoint + records,
  /// truncates any torn tail, installs committed versions, re-stages remote
  /// prepared-but-undecided transactions, and floors future timestamp
  /// proposals above the restart clock (the LastReader table died with the
  /// crash). Locally-coordinated commit records require a replayed decision
  /// — run Coordinator::replay_decisions() first.
  void replay_wal();

  /// This replica's log (nullptr when the WAL is off). The node crashes
  /// media in deterministic order before tearing down protocol state.
  storage::Wal* wal() { return wal_.get(); }

  /// Answer to an orphan probe (DecisionRequest), from the coordinator or
  /// from a census member of the dead coordinator's replica group.
  void on_decision_reply(const DecisionReply& rep);

  /// Fail-stop crash: volatile state (parked readers, tombstones, orphan
  /// probes) is lost; the store keeps committed data and prepared versions
  /// (2PC participants force-write the prepare record).
  void on_crash();

  /// Rejoin: prepared-but-undecided remote transactions found in the
  /// durable store re-enter orphan recovery.
  void on_restart();

  /// Periodic maintenance: GC committed versions up to `watermark`, the
  /// cluster-wide stable-snapshot watermark, expire tombstones older than
  /// kTombstoneHorizon, and checkpoint an idle log with the watermark.
  void maintain(Timestamp watermark);

  std::size_t parked_readers() const;

  /// Lowest snapshot of any read this actor still owes an answer: parked
  /// readers plus reads pinned between writer resolution and their
  /// re-serve. Feeds the cluster stable-snapshot watermark; kTsInfinity
  /// when idle.
  Timestamp min_reader_rs() const;

  /// Prepared remote transactions currently awaiting a coordinator decision.
  std::size_t awaiting_decisions() const { return awaiting_decision_.size(); }

  /// Tombstones held, and the heap their table takes (memory accounting).
  std::size_t tombstone_count() const { return tombstones_.size(); }
  std::uint64_t tombstone_bytes() const { return tombstones_.bytes(); }

 private:
  struct ParkedRead {
    TxId reader;
    NodeId reader_node = kInvalidNode;
    std::uint64_t req_id = 0;  ///< remote reads only
    Key key = 0;
    Timestamp rs = 0;
    bool remote = false;
    Timestamp parked_at = 0;  ///< 0 until the read first parks
    std::uint64_t tspan = 0;  ///< trace context of the remote ReadRequest
    Timestamp recv_at = 0;    ///< when the remote request first arrived
    UniqueFunction<void(store::StoreReadResult)> deliver;  ///< local only
  };

  /// Serve a remote read whose Clock-SI delay (if any) already elapsed;
  /// `recv_at` is the first arrival time (the server-side Handle span spans
  /// receive -> reply, including the delay and any parking).
  void serve_remote_read(const ReadRequest& req, Timestamp recv_at);

  /// Classify a read result and either deliver it or park on the blocking
  /// writer. Local speculative hits are delivered (coordinator gates them);
  /// remote readers only ever receive committed versions.
  void route_read(ParkedRead&& rd, const store::StoreReadResult& r);

  void deliver_read(ParkedRead&& rd, const store::StoreReadResult& r);

  /// Tail of handle_prepare/handle_replicate: replicate fan-out (when
  /// `fan_out`) plus the PrepareReply to the coordinator. In WAL mode this
  /// runs only after the prepare record is durable (2PC participant rule).
  void finish_prepare(PrepareReply reply, NodeId coordinator, Timestamp rs,
                      SharedUpdates updates, bool fan_out);

  /// Re-serve all readers parked on `writer` after its outcome is applied.
  void resolve_writer(const TxId& writer);

  bool tombstoned(const TxId& tx) const { return tombstones_.contains(tx); }

  /// Begin orphan surveillance of a prepared remote transaction: probe the
  /// coordinator after kOrphanTimeout (bounded backoff), census its replica
  /// group while it is down. No-op unless recovery is enabled.
  void track_orphan(const TxId& tx, NodeId coordinator);
  void orphan_check(const TxId& tx);
  /// Ask node `to` for tx's decision, under a Probe span of its own.
  void send_probe(const TxId& tx, NodeId to);

  Node& node_;
  PartitionId pid_;
  bool is_master_;
  store::PartitionStore store_;
  /// Per-replica write-ahead log; nullptr when durability is off.
  std::unique_ptr<storage::Wal> wal_;
  std::unordered_map<TxId, std::vector<ParkedRead>, TxIdHash> parked_;
  /// Snapshots of reads between resolve_writer() moving them out of
  /// parked_ and the deferred re-serve closure running. Maintenance can
  /// fire in that same-instant gap, and the watermark must not pass a read
  /// that is about to hit the store.
  std::vector<Timestamp> inflight_reserve_rs_;
  /// One tombstone per decided transaction, kept for the tombstone horizon
  /// in packed 12 B slots: on abort-heavy runs this is most of the actor's
  /// volatile memory (protocol/tombstone_table.hpp).
  TombstoneTable tombstones_;

  /// Prepared-but-undecided remote transactions (the 2PC in-doubt window).
  struct Orphan {
    NodeId coordinator = kInvalidNode;
    std::uint32_t probes = 0;  ///< DecisionRequests sent to the coordinator
    /// Census over a dead coordinator's replica group: members yet to
    /// answer the round in flight; empty = no round open.
    std::vector<NodeId> census_pending;
    /// Complete rounds since the coordinator was last seen up in which no
    /// member held a copy. Once the origin is dead its copy set is frozen
    /// (members drop replicates from a down origin), so Unknown answers
    /// can never turn into copies — the counter only needs to survive lost
    /// messages, not flapping.
    std::uint32_t census_norecord_rounds = 0;
  };
  std::unordered_map<TxId, Orphan, TxIdHash> awaiting_decision_;

  /// One census tick of orphan_check while the coordinator is down:
  /// consult the local replica copy, then probe the surviving group
  /// members. Returns true when it resolved the orphan (`o` is gone).
  bool census_check(const TxId& tx, Orphan& o);

  /// Count a complete round without a copy; the kOrphanDownProbes-th
  /// presumes abort. Returns true when it resolved the orphan.
  bool end_census_round(const TxId& tx, Orphan& o);

  /// Apply a recovered fate to orphan `tx` — the one routine every
  /// recovery path ends in: resolve a fate its crashed coordinator left in
  /// doubt, count an abort (and a lost commit, if the client was acked),
  /// and apply the outcome, which ends the orphan entry.
  void resolve_orphan(const TxId& tx, TxDecision d, Timestamp ct);

  /// Convoy-effect instruments: how long reads sit parked behind
  /// pre-commit locks, and how many are parked right now.
  obs::Tracer* tracer_ = nullptr;
  obs::Timer* t_read_block_ = nullptr;
  obs::Gauge* g_parked_ = nullptr;
  obs::Counter* c_orphan_aborts_ = nullptr;
  /// Replica aborts of client-acked transactions: recovery aborting one
  /// counts once per participant replica (quorum mode; any nonzero value
  /// is a durability contract violation).
  obs::Counter* c_lost_commits_ = nullptr;
};

}  // namespace str::protocol
