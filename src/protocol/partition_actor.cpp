#include "protocol/partition_actor.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/small_vec.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

PartitionActor::PartitionActor(Node& node, PartitionId pid, bool master)
    : node_(node),
      pid_(pid),
      is_master_(master),
      tombstones_(node.cluster().protocol().gc_horizon +
                  node.cluster().protocol().gc_interval) {
  store_.set_registry(&node.obs());
  tracer_ = &node.cluster().tracer();
  t_read_block_ = &node.obs().timer("phase.read_block");
  g_parked_ = &node.obs().gauge("store.parked_readers");
  c_orphan_aborts_ = &node.obs().counter("txn.orphan_aborts");
  c_lost_commits_ = &node.obs().counter("recovery.lost_commits");
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict inside
  // `"literal" + std::string` concatenation.
  std::string name = "n";
  name.append(std::to_string(node.id()))
      .append("_p")
      .append(std::to_string(pid))
      .append(".wal");
  wal_ = node.cluster().make_wal(name, node.id(), node.wal_counters());
}

void PartitionActor::load(Key key, const SharedValue& value,
                          const TxId& seed_tx) {
  if (wal_ != nullptr) {
    storage::WalUpdates updates;
    updates.emplace_back(key, value);
    storage::LogBuffer frame;
    storage::encode_commit(frame, seed_tx, /*commit_ts=*/0, updates);
    wal_->append(std::move(frame));
  }
  store_.load(key, value);
}

void PartitionActor::serve_local_read(
    const TxId& reader, Key key, Timestamp rs,
    UniqueFunction<void(store::StoreReadResult)> deliver) {
  ScopedLogNode log_node(node_.id());
  // LastReader is bumped exactly once, on first arrival (Alg. 2 line 6);
  // re-serves after parking use peek().
  store::StoreReadResult r = store_.read(key, rs);
  ParkedRead rd;
  rd.reader = reader;
  rd.reader_node = node_.id();
  rd.key = key;
  rd.rs = rs;
  rd.remote = false;
  rd.deliver = std::move(deliver);
  route_read(std::move(rd), r);
}

void PartitionActor::handle_remote_read(ReadRequest req) {
  serve_remote_read(req, node_.cluster().now());
}

void PartitionActor::serve_remote_read(const ReadRequest& req,
                                       Timestamp recv_at) {
  ScopedLogNode log_node(node_.id());
  // Clock-SI read-delay rule: a snapshot from the future of this node's
  // clock waits until the clock catches up, so that no committed version
  // with ts <= rs can still appear after we serve the read.
  const Timestamp phys = node_.physical_now();
  if (req.rs > phys) {
    const Timestamp wait = req.rs - phys;
    node_.cluster().scheduler().schedule_after(
        wait, [this, req, recv_at]() { serve_remote_read(req, recv_at); });
    return;
  }
  store::StoreReadResult r = store_.read(req.key, req.rs);
  ParkedRead rd;
  rd.reader = req.reader;
  rd.reader_node = req.reader_node;
  rd.req_id = req.req_id;
  rd.key = req.key;
  rd.rs = req.rs;
  rd.remote = true;
  rd.tspan = req.tspan;
  rd.recv_at = recv_at;
  route_read(std::move(rd), r);
}

void PartitionActor::route_read(ParkedRead&& rd,
                                const store::StoreReadResult& r) {
  switch (r.kind) {
    case store::ReadKind::Committed:
    case store::ReadKind::NotFound:
      deliver_read(std::move(rd), r);
      return;
    case store::ReadKind::Speculative:
      // Local readers may observe local-committed versions when speculation
      // is on (Alg. 2 line 10); remote readers and non-speculative
      // configurations wait for the final outcome.
      if (!rd.remote && node_.cluster().spec_active(node_.id())) {
        deliver_read(std::move(rd), r);
        return;
      }
      [[fallthrough]];
    case store::ReadKind::Blocked:
      if (rd.parked_at == 0) rd.parked_at = node_.cluster().now();
      g_parked_->add(1);
      parked_[r.writer].push_back(std::move(rd));
      return;
  }
}

void PartitionActor::deliver_read(ParkedRead&& rd,
                                  const store::StoreReadResult& r) {
  // A read that parked behind a pre-commit lock measures the convoy effect
  // directly: total virtual time from first park to delivery.
  if (rd.parked_at != 0) {
    t_read_block_->record(node_.cluster().now() - rd.parked_at);
  }
  if (!rd.remote) {
    rd.deliver(r);
    return;
  }
  ReadReply reply;
  reply.reader = rd.reader;
  reply.req_id = rd.req_id;
  reply.key = rd.key;
  reply.found = r.kind != store::ReadKind::NotFound;
  reply.value = r.value;
  reply.writer = r.writer;
  reply.version_ts = r.ts;
  if (tracer_->enabled()) {
    const Timestamp now = node_.cluster().now();
    const std::uint64_t hspan = tracer_->next_span_id();
    tracer_->emit_span(
        {hspan, rd.tspan, rd.reader, node_.id(), obs::SpanKind::Handle,
         rd.recv_at != 0 ? rd.recv_at : now, now,
         static_cast<std::uint64_t>(wire::MessageType::kReadRequest), rd.key});
    reply.tspan = hspan;
  }
  wire::post(node_.cluster(), node_.id(), rd.reader_node, std::move(reply));
}

store::PrepareResult PartitionActor::prepare_local(
    const TxId& tx, Timestamp rs, const UpdateList& updates,
    const FlatSet<TxId>* chain_allowed) {
  return store_.prepare(tx, rs, updates,
                        node_.cluster().protocol().precise_clocks,
                        node_.physical_now(), chain_allowed);
}

void PartitionActor::apply_local_commit(const TxId& tx, Timestamp lc) {
  store_.local_commit(tx, lc);
  // Readers parked on the pre-committed version may now proceed if they are
  // local and speculation is on (Alg. 2 lines 28-29); others keep waiting.
  resolve_writer(tx);
}

void PartitionActor::handle_prepare(const PrepareRequest& req) {
  ScopedLogNode log_node(node_.id());
  STR_ASSERT_MSG(is_master_, "global prepare must target the master replica");
  // Prepares are only ever built from nonempty write groups; an empty one
  // means a delivery path handed us a moved-from request, which would
  // trivially pass certification and must never reach the store.
  STR_ASSERT_MSG(req.updates && !req.updates->empty(),
                 "prepare with an empty write set");
  Cluster& cluster = node_.cluster();
  std::uint64_t hspan = 0;
  if (tracer_->enabled()) {
    hspan = tracer_->next_span_id();
    tracer_->emit_span(
        {hspan, req.tspan, req.tx, node_.id(), obs::SpanKind::Handle,
         cluster.now(), cluster.now(),
         static_cast<std::uint64_t>(wire::MessageType::kPrepareRequest),
         pid_});
  }
  PrepareReply reply;
  reply.tx = req.tx;
  reply.partition = pid_;
  reply.from = node_.id();
  reply.tspan = hspan;

  bool fan_out = false;
  bool fresh = false;
  if (tombstoned(req.tx)) {
    reply.prepared = false;
  } else if (store_.has_uncommitted(req.tx)) {
    // Duplicate or re-sent prepare for a transaction already prepared here
    // (possibly across a crash — the prepared state is durable, the reply
    // is not): re-answer with the recorded proposal, and re-replicate in
    // case the original replicates were the messages that were lost.
    reply.prepared = true;
    reply.proposed_ts = store_.uncommitted_ts(req.tx);
    fan_out = true;
  } else {
    // Remote transactions cannot data-depend on this node's speculation, so
    // no chaining is admissible here: any uncommitted version conflicts
    // (Alg. 2 line 16 — first writer in the store wins at the master).
    store::PrepareResult pr =
        store_.prepare(req.tx, req.rs, *req.updates,
                       cluster.protocol().precise_clocks, node_.physical_now());
    reply.prepared = pr.ok;
    reply.proposed_ts = pr.proposed_ts;
    fan_out = pr.ok;
    fresh = pr.ok;
    if (pr.ok) track_orphan(req.tx, req.coordinator);
  }
  if (wal_ != nullptr && reply.prepared) {
    // 2PC participant rule: the positive ack (and the replicate fan-out it
    // authorizes) leaves this node only after the prepare record is on
    // stable storage. A duplicate re-ack rides a sync instead — its record
    // is already in the log, possibly still in an open group-commit batch.
    auto finish = [this, reply, coordinator = req.coordinator, rs = req.rs,
                   updates = req.updates, fan_out]() mutable {
      finish_prepare(std::move(reply), coordinator, rs, std::move(updates),
                     fan_out);
    };
    if (fresh) {
      storage::LogBuffer frame;
      storage::encode_prepare(frame, req.tx, req.rs, reply.proposed_ts,
                              *req.updates);
      wal_->append(std::move(frame), std::move(finish));
    } else {
      wal_->sync(std::move(finish));
    }
    return;
  }
  finish_prepare(std::move(reply), req.coordinator, req.rs, req.updates,
                 fan_out);
}

void PartitionActor::finish_prepare(PrepareReply reply, NodeId coordinator,
                                    Timestamp rs, SharedUpdates updates,
                                    bool fan_out) {
  Cluster& cluster = node_.cluster();
  if (fan_out) {
    // Synchronous replication: fan the pre-commit out to every slave
    // except the coordinator's node (its replica, if any, was certified
    // during the coordinator's local 2PC).
    SmallVec<NodeId, 8> slaves;
    for (NodeId slave : cluster.pmap().replicas(pid_)) {
      if (slave != node_.id() && slave != coordinator) slaves.push_back(slave);
    }
    ReplicateRequest rep;
    rep.tx = reply.tx;
    rep.coordinator = coordinator;
    rep.partition = pid_;
    rep.rs = rs;
    rep.updates = std::move(updates);  // shared payload: no copy
    rep.tspan = reply.tspan;  // slave Handle spans chain under the master's
    wire::post_fanout(cluster, node_.id(), {slaves.begin(), slaves.end()},
                      rep);
  }
  wire::post(cluster, node_.id(), coordinator, std::move(reply));
}

void PartitionActor::handle_replicate(const ReplicateRequest& req) {
  ScopedLogNode log_node(node_.id());
  STR_ASSERT_MSG(!is_master_ || node_.id() != req.coordinator,
                 "replicate targets slave replicas");
  STR_ASSERT_MSG(req.updates && !req.updates->empty(),
                 "replicate with an empty write set");
  Cluster& cluster = node_.cluster();
  if (tombstoned(req.tx)) return;  // late replicate of an aborted tx

  std::uint64_t hspan = 0;
  if (tracer_->enabled()) {
    hspan = tracer_->next_span_id();
    tracer_->emit_span(
        {hspan, req.tspan, req.tx, node_.id(), obs::SpanKind::Handle,
         cluster.now(), cluster.now(),
         static_cast<std::uint64_t>(wire::MessageType::kReplicateRequest),
         pid_});
  }

  PrepareReply reply;
  reply.tx = req.tx;
  reply.partition = pid_;
  reply.from = node_.id();
  reply.prepared = true;
  reply.tspan = hspan;

  if (store_.has_uncommitted(req.tx)) {
    // Duplicate delivery or master re-send: the pre-commit is already in
    // place, so just re-ack with the recorded proposal (after a durability
    // sync in WAL mode — the record may sit in an open batch).
    reply.proposed_ts = store_.uncommitted_ts(req.tx);
    if (wal_ != nullptr) {
      wal_->sync([this, reply, coordinator = req.coordinator]() mutable {
        wire::post(node_.cluster(), node_.id(), coordinator,
                   std::move(reply));
      });
      return;
    }
    wire::post(cluster, node_.id(), req.coordinator, std::move(reply));
    return;
  }

  auto rr = store_.replicate_insert(req.tx, *req.updates,
                                    cluster.protocol().precise_clocks,
                                    node_.physical_now());
  // Abort this node's own local-committed transactions that lost to the
  // master-certified pre-commit (and, via the coordinator, everything that
  // speculatively read from them) — Alg. 2 line 31. This stays synchronous
  // even in WAL mode: the evictions are volatile-state protocol actions,
  // not durability-gated acks.
  for (const TxId& loser : rr.evicted) {
    node_.coordinator().abort_tx(loser, AbortReason::RemoteReplication);
  }
  const Timestamp proposed =
      store_.replicate_finish(req.tx, *req.updates, rr.proposed_ts);
  track_orphan(req.tx, req.coordinator);
  reply.proposed_ts = proposed;

  if (wal_ != nullptr) {
    // Participant rule again: ack only once the pre-commit record is
    // durable, so a post-crash replay re-stages exactly what was acked.
    storage::LogBuffer frame;
    storage::encode_prepare(frame, req.tx, req.rs, proposed, *req.updates);
    wal_->append(std::move(frame),
                 [this, reply, coordinator = req.coordinator]() mutable {
                   wire::post(node_.cluster(), node_.id(), coordinator,
                              std::move(reply));
                 });
    return;
  }
  wire::post(cluster, node_.id(), req.coordinator, std::move(reply));
}

void PartitionActor::apply_commit(const TxId& tx, Timestamp ct) {
  // The coordinator's own replicas logged their commit records in its
  // durability barrier (log_commit).
  if (wal_ != nullptr && node_.up() && tx.node != node_.id() &&
      store_.has_uncommitted(tx)) {
    // Lazy commit record: nothing is acknowledged on its durability (the
    // coordinator's decision record is the commit point), but without it a
    // replay would re-stage the prepare as in-doubt and re-probe a decision
    // the coordinator may have long pruned. It is the outcome only: the
    // writes are in this log already, in the kPrepare forced before the ack
    // or in a checkpoint that re-staged the pre-commit since.
    storage::LogBuffer frame;
    storage::encode_commit(frame, tx, ct, storage::WalUpdates{});
    wal_->append(std::move(frame));
  }
  store_.final_commit(tx, ct);
  tombstones_.insert(tx, node_.physical_now());
  awaiting_decision_.erase(tx);
  resolve_writer(tx);
}

void PartitionActor::apply_abort(const TxId& tx) {
  // node_.up() guard: crash-time abort teardown runs after the media
  // crashed; appending then would graft a post-crash record onto the log.
  if (wal_ != nullptr && node_.up() && store_.has_uncommitted(tx)) {
    // Lazy abort record: releases the staged prepare at replay so the
    // restart does not re-enter orphan recovery for a decided transaction.
    storage::LogBuffer frame;
    storage::encode_abort(frame, tx);
    wal_->append(std::move(frame));
  }
  store_.abort_tx(tx);
  tombstones_.insert(tx, node_.physical_now());
  awaiting_decision_.erase(tx);
  resolve_writer(tx);
}

void PartitionActor::log_commit(const TxId& tx, Timestamp ct,
                                UniqueFunction<void()> on_durable) {
  STR_ASSERT_MSG(wal_ != nullptr, "log_commit without a WAL");
  storage::LogBuffer frame;
  storage::encode_commit(frame, tx, ct,
                         [this, &tx](const storage::UpdateFn& fn) {
                           store_.for_each_uncommitted_update(tx, fn);
                         });
  wal_->append(std::move(frame), std::move(on_durable));
}

void PartitionActor::track_orphan(const TxId& tx, NodeId coordinator) {
  const RecoveryConfig& rc = node_.cluster().protocol().recovery;
  if (!rc.enabled) return;
  if (coordinator == node_.id()) return;  // local 2PC, decided synchronously
  auto [it, inserted] = awaiting_decision_.try_emplace(tx);
  if (!inserted) return;
  it->second.coordinator = coordinator;
  node_.cluster().scheduler().schedule_after(
      rc.orphan_timeout, [this, tx]() { orphan_check(tx); });
}

void PartitionActor::orphan_check(const TxId& tx) {
  auto it = awaiting_decision_.find(tx);
  if (it == awaiting_decision_.end()) return;  // decided meanwhile
  ScopedLogNode log_node(node_.id());
  Cluster& cluster = node_.cluster();
  const RecoveryConfig& rc = cluster.protocol().recovery;
  Orphan& o = it->second;
  const NodeId coordinator = o.coordinator;
  if (!cluster.node(coordinator).up()) {
    if (cluster.decision_quorum_enabled()) {
      // Quorum mode: the coordinator is gone but its decision — if one
      // reached the commit point — survives on the replica group. Census
      // the survivors instead of presuming abort unilaterally; the
      // single-copy escape hatch below is unreachable while the quorum
      // holds.
      census_check(tx, o);
      if (awaiting_decision_.find(tx) == awaiting_decision_.end()) return;
    } else if (++o.down_probes >= rc.orphan_down_probes) {
      // Perfect failure detector (docs/FAULTS.md): only after seeing the
      // coordinator down on several consecutive probes do we presume abort
      // unilaterally and release the pre-commit lock.
      c_orphan_aborts_->inc();
      apply_abort(tx);
      return;
    }
  } else {
    o.down_probes = 0;
    // A coordinator restart invalidates any census in flight: probe it
    // directly again (it replayed its own log and answers authoritatively).
    o.census_pending.clear();
    o.census_norecord_rounds = 0;
    ++o.probes;
    DecisionRequest req;
    req.tx = tx;
    req.partition = pid_;
    req.from = node_.id();
    if (tracer_->enabled()) {
      const std::uint64_t pspan = tracer_->next_span_id();
      tracer_->emit_span(
          {pspan, 0, tx, node_.id(), obs::SpanKind::Probe, cluster.now(),
           cluster.now(),
           static_cast<std::uint64_t>(wire::MessageType::kDecisionRequest),
           pid_});
      req.tspan = pspan;
    }
    wire::post(cluster, node_.id(), coordinator, std::move(req));
  }
  // Bounded backoff between probes, capped at orphan_interval_cap.
  Timestamp wait = rc.orphan_timeout;
  for (std::uint32_t i = 0; i < o.probes && wait < rc.orphan_interval_cap;
       ++i) {
    wait *= 2;
  }
  if (wait > rc.orphan_interval_cap) wait = rc.orphan_interval_cap;
  cluster.scheduler().schedule_after(wait, [this, tx]() { orphan_check(tx); });
}

void PartitionActor::on_decision_reply(DecisionReply rep) {
  ScopedLogNode log_node(node_.id());
  auto it = awaiting_decision_.find(rep.tx);
  if (it == awaiting_decision_.end()) return;  // resolved meanwhile
  if (tracer_->enabled()) {
    const Timestamp now = node_.cluster().now();
    tracer_->emit_span(
        {tracer_->next_span_id(), rep.tspan, rep.tx, node_.id(),
         obs::SpanKind::Handle, now, now,
         static_cast<std::uint64_t>(wire::MessageType::kDecisionReply), pid_});
  }
  switch (rep.decision) {
    case TxDecision::Committed:
      apply_commit(rep.tx, rep.commit_ts);
      break;
    case TxDecision::Aborted:
      c_orphan_aborts_->inc();
      apply_abort(rep.tx);
      break;
    case TxDecision::Unknown:
      // The coordinator is still deciding; keep waiting (the orphan timer
      // stays armed).
      break;
  }
}

void PartitionActor::census_check(const TxId& tx, Orphan& o) {
  Cluster& cluster = node_.cluster();
  const RecoveryConfig& rc = cluster.protocol().recovery;
  // This node may itself be a group member (or hold a replayed copy):
  // consult the local replica copy before spending a network round.
  TxDecision d = TxDecision::Unknown;
  Timestamp ct = 0;
  if (node_.coordinator().find_decision(tx, &d, &ct) &&
      d == TxDecision::Committed) {
    cluster.resolve_in_doubt(node_.id(), tx, true);
    apply_commit(tx, ct);  // erases the orphan entry
    return;
  }
  // Surviving members: the group minus the dead coordinator and us.
  std::vector<NodeId> members;
  for (NodeId m : cluster.decision_group(o.coordinator)) {
    if (m != o.coordinator && m != node_.id()) members.push_back(m);
  }
  bool all_up = true;
  for (NodeId m : members) {
    if (!cluster.node(m).up()) {
      all_up = false;
      break;
    }
  }
  if (!all_up) {
    // A member that may hold the decisive copy is unreachable: this round
    // cannot conclude "no copy anywhere". Abandon it and stall — a
    // permanently lost quorum shows up as a stuck orphan (an explicit
    // quiesce leak), never as a wrong answer.
    o.census_pending.clear();
    return;
  }
  if (members.empty()) {
    // Nothing beyond the copies already consulted can exist: vacuous
    // rounds count like down-probes.
    if (++o.census_norecord_rounds >= rc.orphan_down_probes) {
      census_abort(tx);  // erases the orphan entry
    }
    return;
  }
  const bool new_round = o.census_pending.empty();
  if (new_round) o.census_pending = members;
  // (Re-)probe whoever has not answered this round; a lost probe or reply
  // is recovered by the next tick re-sending to the stragglers.
  for (NodeId m : o.census_pending) {
    DecisionRequest req;
    req.tx = tx;
    req.partition = pid_;
    req.from = node_.id();
    if (tracer_->enabled()) {
      const std::uint64_t pspan = tracer_->next_span_id();
      tracer_->emit_span(
          {pspan, 0, tx, node_.id(), obs::SpanKind::Probe, cluster.now(),
           cluster.now(),
           static_cast<std::uint64_t>(wire::MessageType::kDecisionRequest),
           pid_});
      req.tspan = pspan;
    }
    wire::post(cluster, node_.id(), m, std::move(req));
  }
}

void PartitionActor::census_abort(const TxId& tx) {
  Cluster& cluster = node_.cluster();
  // Every surviving member answered "no copy" for enough complete rounds:
  // the decision never reached its quorum, so the apply never ran and no
  // client was acked — presumed abort is safe. recovery.lost_commits
  // flags the (invariant-violating) case where an ack did happen.
  c_orphan_aborts_->inc();
  if (cluster.commit_acked(tx)) {
    STR_ERROR("lost commit: recovery aborted client-acked txn n%u#%llu",
              static_cast<unsigned>(tx.node),
              static_cast<unsigned long long>(tx.seq));
    c_lost_commits_->inc();
  }
  cluster.resolve_in_doubt(node_.id(), tx, false);
  apply_abort(tx);
}

void PartitionActor::on_census_reply(const DecisionReplicateAck& rep) {
  ScopedLogNode log_node(node_.id());
  auto it = awaiting_decision_.find(rep.tx);
  if (it == awaiting_decision_.end()) return;  // resolved meanwhile
  Orphan& o = it->second;
  if (tracer_->enabled()) {
    const Timestamp now = node_.cluster().now();
    tracer_->emit_span(
        {tracer_->next_span_id(), rep.tspan, rep.tx, node_.id(),
         obs::SpanKind::Handle, now, now,
         static_cast<std::uint64_t>(wire::MessageType::kDecisionReplicateAck),
         pid_});
  }
  if (rep.kind == DecisionAckKind::kCommitted) {
    node_.cluster().resolve_in_doubt(node_.id(), rep.tx, true);
    apply_commit(rep.tx, rep.commit_ts);
    return;
  }
  STR_ASSERT(rep.kind == DecisionAckKind::kNoRecord);
  // Dedup per member per round: erasing from the pending set is idempotent
  // against duplicated deliveries and re-sent probes.
  auto m = std::find(o.census_pending.begin(), o.census_pending.end(),
                     rep.from);
  if (m == o.census_pending.end()) return;
  o.census_pending.erase(m);
  if (!o.census_pending.empty()) return;
  // Round complete, all NoRecord.
  if (++o.census_norecord_rounds >=
      node_.cluster().protocol().recovery.orphan_down_probes) {
    census_abort(rep.tx);
  }
}

void PartitionActor::on_crash() {
  // Volatile state is lost. Without a WAL the store is NOT cleared:
  // committed data and prepared versions survive by assumption ("magic
  // durability", docs/FAULTS.md §3). With a WAL the assumption is earned:
  // the store dies here and replay_wal() rebuilds it from the log (the node
  // already crash-resolved the media).
  g_parked_->add(-static_cast<std::int64_t>(parked_readers()));
  parked_.clear();
  tombstones_.clear();
  awaiting_decision_.clear();
  if (wal_ != nullptr) store_.clear_all();
}

void PartitionActor::replay_wal() {
  STR_ASSERT_MSG(wal_ != nullptr, "replay without a WAL");
  ScopedLogNode log_node(node_.id());
  store_.clear_all();
  Coordinator& coord = node_.coordinator();

  // Prepared-but-uncommitted remote transactions seen so far in the scan.
  // Linear scans are fine: replay is cold and the in-doubt set is tiny.
  struct Staged {
    TxId tx;
    Timestamp proposed = 0;
    storage::WalUpdates updates;
  };
  std::vector<Staged> staged;
  std::vector<TxId> installed;  // committed installs (duplicate-record guard)
  // Unstage tx's prepare, if one is staged, and return its writes.
  auto take_staged = [&staged](const TxId& tx) {
    storage::WalUpdates updates;
    for (auto it = staged.begin(); it != staged.end(); ++it) {
      if (it->tx == tx) {
        updates = std::move(it->updates);
        staged.erase(it);
        break;
      }
    }
    return updates;
  };

  const storage::WalScanResult scan =
      wal_->replay([&](const storage::WalRecord& rec) {
        switch (rec.type) {
          case storage::WalRecordType::kCheckpoint:
            // A checkpoint replaces everything before it.
            store_.clear_all();
            staged.clear();
            installed.clear();
            for (const storage::CheckpointVersion& v : rec.snapshot) {
              if (v.state == VersionState::Committed) {
                store_.replay_insert(
                    v.key, store::Version{v.ts, v.state, v.writer, v.value});
              } else if (v.state == VersionState::PreCommitted &&
                         v.writer.node != node_.id()) {
                // Remote in-doubt pre-commit: reinstate the lock; orphan
                // recovery (on_restart) will chase the decision.
                store_.replay_insert(
                    v.key, store::Version{v.ts, v.state, v.writer, v.value});
              }
              // This node's own uncommitted speculation: presumed abort.
            }
            break;
          case storage::WalRecordType::kPrepare:
            take_staged(rec.tx);
            staged.push_back({rec.tx, rec.ts, rec.updates});
            break;
          case storage::WalRecordType::kCommit: {
            // A participant's record is the outcome only (apply_commit);
            // its writes come from the prepare staged before it.
            const storage::WalUpdates prepared = take_staged(rec.tx);
            if (rec.tx.node == node_.id()) {
              // Local prepares are never logged: the coordinator's barrier
              // record lists its writes.
              STR_ASSERT_MSG(!rec.updates.empty(),
                             "outcome-only commit record of a locally "
                             "coordinated transaction");
              if (!coord.decided_committed(rec.tx)) {
                // Its decision record did not survive: the client ack never
                // happened (the decision sync is the commit point), so
                // presumed abort wins.
                if (store_.has_uncommitted(rec.tx)) store_.abort_tx(rec.tx);
                break;
              }
            }
            if (std::find(installed.begin(), installed.end(), rec.tx) !=
                installed.end()) {
              break;
            }
            installed.push_back(rec.tx);
            if (store_.has_uncommitted(rec.tx)) {
              // The checkpoint re-staged this pre-commit; finalize it.
              store_.final_commit(rec.tx, rec.ts);
              break;
            }
            const storage::WalUpdates& writes =
                rec.updates.empty() ? prepared : rec.updates;
            STR_ASSERT_MSG(!writes.empty(),
                           "outcome-only commit record without its prepare");
            for (const auto& [key, value] : writes) {
              store_.replay_insert(
                  key, store::Version{rec.ts, VersionState::Committed, rec.tx,
                                      value});
            }
            break;
          }
          case storage::WalRecordType::kAbort:
            take_staged(rec.tx);
            if (store_.has_uncommitted(rec.tx)) store_.abort_tx(rec.tx);
            break;
          case storage::WalRecordType::kDecision:
            break;  // decision records live in the node log, not here
        }
      });
  if (scan.torn) {
    STR_INFO("p%u WAL replay truncated a torn tail at %zu bytes",
             static_cast<unsigned>(pid_), scan.valid_bytes);
  }

  // Surviving staged prepares are remote in-doubt transactions whose ack may
  // have left this node: reinstate their pre-commit locks. Sorted for
  // deterministic insertion order. This node's own staged prepares cannot
  // exist (local prepares are never logged), but skip them defensively.
  std::sort(staged.begin(), staged.end(),
            [](const Staged& a, const Staged& b) { return a.tx < b.tx; });
  for (const Staged& s : staged) {
    if (s.tx.node == node_.id()) continue;
    if (store_.has_uncommitted(s.tx)) continue;  // checkpoint already did it
    for (const auto& [key, value] : s.updates) {
      store_.replay_insert(
          key,
          store::Version{s.proposed, VersionState::PreCommitted, s.tx, value});
    }
  }

  // The LastReader table died with the crash. Any snapshot served before the
  // crash is bounded by the crash-time physical clock, so flooring future
  // proposals above the restart clock restores the Precise Clocks invariant
  // without it.
  store_.set_ts_floor(node_.physical_now());
}

void PartitionActor::on_restart() {
  if (!node_.cluster().protocol().recovery.enabled) return;
  // Prepared-but-undecided transactions found in the durable store re-enter
  // orphan recovery. A TxId names its coordinator: tx.node.
  for (const TxId& tx : store_.uncommitted_txns()) {
    if (tx.node != node_.id()) track_orphan(tx, tx.node);
  }
}

void PartitionActor::resolve_writer(const TxId& writer) {
  auto it = parked_.find(writer);
  if (it == parked_.end()) return;
  std::vector<ParkedRead> waiters = std::move(it->second);
  parked_.erase(it);
  g_parked_->add(-static_cast<std::int64_t>(waiters.size()));
  // Re-serve through the scheduler: resolution can cascade into coordinator
  // logic for other transactions, and deferring keeps event handling
  // non-reentrant and deterministic. Pin each snapshot until its closure
  // runs — a maintenance tick at this same instant sits between us and the
  // closure in the event queue, and its GC must still see these readers.
  for (ParkedRead& rd : waiters) {
    inflight_reserve_rs_.push_back(rd.rs);
    node_.cluster().scheduler().schedule_now(
        [this, rd = std::move(rd)]() mutable {
          auto pin = std::find(inflight_reserve_rs_.begin(),
                               inflight_reserve_rs_.end(), rd.rs);
          STR_ASSERT(pin != inflight_reserve_rs_.end());
          inflight_reserve_rs_.erase(pin);
          store::StoreReadResult r = store_.peek(rd.key, rd.rs);
          route_read(std::move(rd), r);
        });
  }
}

void PartitionActor::maintain(Timestamp prune_horizon,
                              Timestamp tombstone_horizon) {
  store_.gc(prune_horizon);
  tombstones_.expire(tombstone_horizon);
  // Checkpoint/truncate: once the threshold's worth of records was
  // appended since the last checkpoint and the log is idle (idle => every
  // appended record is durable and no offsets are live), replace it with
  // one checkpoint record snapshotting the store. The image itself does not
  // count, so a log nothing was appended to is not snapshot again. The
  // watermark rides along as metadata. Never on a down node — its store was
  // wiped at crash and the log is the only copy until replay.
  if (wal_ != nullptr && node_.up() && wal_->idle() &&
      wal_->appended_since_checkpoint() >=
          node_.cluster().protocol().durability.checkpoint_min_bytes) {
    std::vector<storage::CheckpointVersion> snap;
    snap.reserve(store_.version_count());
    store_.for_each_version_sorted([&snap](Key key, const store::Version& v) {
      snap.push_back({key, v.ts, v.state, v.writer(), v.value});
    });
    storage::LogBuffer bytes;
    storage::encode_checkpoint(bytes, prune_horizon, snap);
    wal_->rewrite(std::move(bytes));
  }
}

std::size_t PartitionActor::parked_readers() const {
  std::size_t n = 0;
  for (const auto& [writer, list] : parked_) n += list.size();
  return n;
}

Timestamp PartitionActor::min_reader_rs() const {
  Timestamp m = kTsInfinity;
  for (const auto& [writer, list] : parked_) {
    for (const ParkedRead& rd : list) m = std::min(m, rd.rs);
  }
  for (Timestamp rs : inflight_reserve_rs_) m = std::min(m, rs);
  return m;
}

}  // namespace str::protocol
