#include "protocol/coordinator.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/small_vec.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

namespace {

/// How long a finished transaction's decision answers DecisionRequests.
/// Must exceed the longest plausible partition window plus the orphan
/// probe interval.
constexpr Timestamp kDecisionRetention = sec(30);

/// Compact the decision log once it holds this many bytes (entries past
/// kDecisionRetention are dropped).
constexpr std::uint64_t kDecisionLogMaxBytes = 256 * 1024;

txn::ReadResult own_write_result(const SharedValue& value, const TxId& self,
                                 Timestamp rs) {
  txn::ReadResult r;
  r.found = true;
  if (value) r.value = *value;
  r.writer = self;
  r.version_ts = rs;
  return r;
}

/// The entry of `pid` in a grouped partition list; a first touch inserts it
/// at the front (group_writes' order rule).
template <class Parts>
txn::TxnRecord::PartitionWrites& touch(Parts& parts, PartitionId pid) {
  for (auto& part : parts) {
    if (part.partition == pid) return part;
  }
  parts.insert(parts.begin(), txn::TxnRecord::PartitionWrites{pid, 0, {}});
  return parts[0];
}

/// The update list of a partition the record's write set touches.
const std::shared_ptr<UpdateList>& updates_of(const txn::TxnRecord& rec,
                                              PartitionId pid) {
  for (const auto& part : rec.local_parts) {
    if (part.partition == pid) return part.updates;
  }
  for (const auto& part : rec.remote_parts) {
    if (part.partition == pid) return part.updates;
  }
  ::str::detail::assert_fail("updates_of", __FILE__, __LINE__,
                             "partition outside the write set");
}

}  // namespace

void group_writes(txn::TxnRecord& rec, const PartitionMap& pmap,
                  NodeId origin, bool with_updates) {
  STR_ASSERT(!rec.grouped() && rec.cache_writes.empty());
  std::size_t remote_writes = 0;
  for (const auto& [key, value] : rec.writes) {
    const PartitionId pid = PartitionMap::partition_of(key);
    if (pmap.replicates(origin, pid)) {
      ++touch(rec.local_parts, pid).count;
    } else {
      ++touch(rec.remote_parts, pid).count;
      ++remote_writes;
    }
  }
  if (!with_updates) return;
  const auto reserve_lists = [](auto& parts) {
    for (auto& part : parts) {
      part.updates = std::make_shared<UpdateList>();
      part.updates->reserve(part.count);
    }
  };
  reserve_lists(rec.local_parts);
  reserve_lists(rec.remote_parts);
  rec.cache_writes.reserve(remote_writes);
  for (const auto& [key, value] : rec.writes) {
    const PartitionId pid = PartitionMap::partition_of(key);
    if (pmap.replicates(origin, pid)) {
      touch(rec.local_parts, pid).updates->emplace_back(key, value);
    } else {
      touch(rec.remote_parts, pid).updates->emplace_back(key, value);
      rec.cache_writes.emplace_back(key, value);
    }
  }
}

Coordinator::Coordinator(Node& node) : node_(node) {
  Cluster& cluster = node.cluster();
  tracer_ = &cluster.tracer();
  obs::Registry& obs = node.obs();
  c_begins_ = &obs.counter("txn.begins");
  c_commits_ = &obs.counter("txn.commits");
  c_aborts_ = &obs.counter("txn.aborts");
  g_live_ = &obs.gauge("txn.live");
  t_first_read_ = &obs.timer("phase.time_to_first_read");
  t_gate_stall_ = &obs.timer("phase.gate_stall");
  t_local_cert_ = &obs.timer("phase.local_cert");
  t_wan_prepare_ = &obs.timer("phase.wan_prepare");
  t_dep_wait_ = &obs.timer("phase.dep_wait");
  t_decision_durable_ = &obs.timer("phase.decision_durable");
  t_lock_hold_ = &obs.timer("phase.lock_hold");
  t_lock_hold_total_ = &obs.timer("phase.lock_hold_total");
  t_commit_snap_dist_ = &obs.timer("phase.commit_snapshot_distance");
  c_rpc_timeouts_ = &obs.counter("rpc.timeouts");
  c_rpc_retries_ = &obs.counter("rpc.retries");
  for (std::size_t r = 1; r < c_aborts_by_reason_.size(); ++r) {
    c_aborts_by_reason_[r] =
        &obs.counter(abort_counter_name(static_cast<AbortReason>(r)));
  }
  c_externalized_ = &obs.counter("txn.externalized");
  c_ext_misspeculations_ = &obs.counter("txn.ext_misspeculations");
  c_reads_ = &obs.counter("txn.reads");
  c_spec_reads_ = &obs.counter("txn.reads.speculative");
  t_final_latency_ = &obs.timer("txn.final_latency");
  t_spec_latency_ = &obs.timer("txn.speculative_latency");

  // Remote-read failover order, a pure function of the topology: each
  // partition not replicated here, its replicas nearest first from this
  // region (ties keep the partition map's order).
  const PartitionMap& pmap = cluster.pmap();
  read_order_at_.reserve(pmap.num_partitions() + 1);
  read_order_at_.push_back(0);
  for (PartitionId p = 0; p < pmap.num_partitions(); ++p) {
    if (!pmap.replicates(node.id(), p)) {
      const auto& replicas = pmap.replicas(p);
      const auto row = read_order_.insert(read_order_.end(), replicas.begin(),
                                          replicas.end());
      cluster.sort_nearest_first(node.region(), {row, read_order_.end()});
    }
    read_order_at_.push_back(static_cast<std::uint32_t>(read_order_.size()));
  }
}

std::string abort_counter_name(AbortReason r) {
  std::string name = "txn.aborts.";
  name.append(to_string(r));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

void Coordinator::report_commit(const TxId& tx, Timestamp ct,
                                const UpdateList& writes, Timestamp at,
                                Timestamp first_activation,
                                Timestamp externalized_at) {
  if (auto* h = node_.cluster().history()) {
    verify::WriteSetEvent ev;
    ev.tx = tx;
    ev.ts = ct;
    ev.at = at;
    ev.keys.reserve(writes.size());
    for (const auto& [key, value] : writes) ev.keys.push_back(key);
    h->on_final_commit(ev);
  }
  count_commit(at, first_activation, externalized_at);
}

void Coordinator::report_abort(const TxId& tx, AbortReason reason,
                               Timestamp at, bool externalized) {
  if (auto* h = node_.cluster().history()) {
    h->on_abort(verify::AbortEvent{tx, reason, at});
  }
  count_abort(at, reason, externalized);
}

void Coordinator::count_commit(Timestamp at, Timestamp first_activation,
                               Timestamp externalized_at) {
  ++lifetime_commits_;
  if (at < node_.cluster().obs_cutover()) return;
  c_commits_->inc();
  t_final_latency_->record(at - first_activation);
  if (externalized_at != 0) {
    c_externalized_->inc();
    t_spec_latency_->record(externalized_at - first_activation);
  }
}

void Coordinator::count_abort(Timestamp at, AbortReason reason,
                              bool externalized) {
  if (at < node_.cluster().obs_cutover()) return;
  c_aborts_->inc();
  c_aborts_by_reason_[static_cast<std::size_t>(reason)]->inc();
  if (externalized) {
    c_externalized_->inc();
    c_ext_misspeculations_->inc();
  }
}

bool Coordinator::spec_active() const {
  return node_.cluster().spec_active(node_.id());
}

TxId Coordinator::begin(Timestamp first_activation) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  const TxId id{node_.id(), next_seq_++};
  if (!node_.up()) {
    // A crashed node accepts nothing: hand out an id that is never
    // registered, so reads and the outcome future resolve aborted
    // immediately and the client backs off until the restart.
    return id;
  }
  std::unique_ptr<txn::TxnRecord> rec;
  if (!record_pool_.empty()) {
    rec = std::move(record_pool_.back());
    record_pool_.pop_back();
  } else {
    rec = std::make_unique<txn::TxnRecord>();
  }
  rec->id = id;
  rec->origin = node_.id();
  rec->rs = node_.physical_now();
  rec->attempt_start = cluster.now();
  rec->first_activation =
      first_activation == 0 ? cluster.now() : first_activation;
  if (auto* h = cluster.history()) {
    h->on_begin(verify::BeginEvent{id, node_.id(), rec->rs});
  }
  c_begins_->inc();
  g_live_->add(1);
  if (tracer_->enabled()) {
    rec->trace_span = tracer_->next_span_id();
    tracer_->emit({cluster.now(), id, node_.id(), obs::TraceEventType::TxBegin,
                   rec->rs, 0});
  }
  txns_.emplace(id, std::move(rec));
  return id;
}

txn::TxnRecord* Coordinator::find(const TxId& tx) {
  auto it = txns_.find(tx);
  return it == txns_.end() ? nullptr : it->second.get();
}

const txn::TxnRecord* Coordinator::find(const TxId& tx) const {
  auto it = txns_.find(tx);
  return it == txns_.end() ? nullptr : it->second.get();
}

bool Coordinator::is_aborted(const TxId& tx) const {
  const txn::TxnRecord* rec = find(tx);
  return rec == nullptr || rec->phase == txn::TxnPhase::Aborted;
}

Timestamp Coordinator::snapshot_of(const TxId& tx) const {
  const txn::TxnRecord* rec = find(tx);
  return rec == nullptr ? 0 : rec->rs;
}

sim::Future<txn::ReadResult> Coordinator::read(const TxId& tx, Key key) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  sim::Promise<txn::ReadResult> promise(cluster.scheduler());

  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) {
    txn::ReadResult dead;
    dead.aborted = true;
    promise.set_value(std::move(dead));
    return promise.future();
  }

  // Read-your-own-writes from the private buffer (linear scan: write sets
  // are small and the buffer is a flat vector).
  for (const auto& [wkey, wvalue] : rec->writes) {
    if (wkey == key) {
      promise.set_value(own_write_result(wvalue, tx, rec->rs));
      return promise.future();
    }
  }

  rec->outstanding_reads.push_back(promise);
  const PartitionId pid = PartitionMap::partition_of(key);
  PartitionActor* local = node_.replica(pid);
  std::uint64_t read_span = 0;
  const Timestamp issued_at = cluster.now();
  if (tracer_->enabled()) {
    read_span = tracer_->next_span_id();
    tracer_->emit({cluster.now(), tx, node_.id(),
                   obs::TraceEventType::ReadIssued, key,
                   local == nullptr ? 1u : 0u});
  }
  if (local != nullptr) {
    local->serve_local_read(
        tx, key, rec->rs,
        [this, tx, key, promise, read_span,
         issued_at](const store::StoreReadResult& r) mutable {
          on_read_value(tx, key, r, std::move(promise), read_span, issued_at);
        });
    return promise.future();
  }

  // Non-local key: the cache partition may hold a local-committed version
  // written by an unsafe transaction of this node (Alg. 1 lines 8-9).
  if (spec_active()) {
    store::StoreReadResult cached = node_.cache().read(key, rec->rs);
    if (cached.kind == store::ReadKind::Speculative) {
      sim::Future<txn::ReadResult> future = promise.future();
      on_read_value(tx, key, cached, std::move(promise), read_span,
                    issued_at);
      return future;
    }
  }

  // Remote read in the partition's failover order (read_order). The head
  // is the first target; retries rotate through the rest.
  const std::span<const NodeId> candidates = read_order(pid);
  STR_ASSERT(!candidates.empty());
  const std::uint64_t req_id = next_read_id_++;
  PendingRemoteRead pending{tx,      key, promise,   rec->rs,
                            0,       candidates, read_span, issued_at};
  auto [it2, inserted] = pending_remote_.emplace(req_id, std::move(pending));
  STR_ASSERT(inserted);
  send_read_request(req_id, it2->second);
  if (cluster.protocol().recovery.enabled) arm_read_timer(req_id);
  return promise.future();
}

void Coordinator::send_read_request(std::uint64_t req_id,
                                    const PendingRemoteRead& p) {
  Cluster& cluster = node_.cluster();
  // Rotate through the failover order; skip replicas the failure detector
  // reports down (if all are down, send anyway — the drop is counted and
  // the retry budget eventually converts it into a Timeout abort).
  const std::size_t n = p.candidates.size();
  NodeId target = p.candidates[p.attempts % n];
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId cand = p.candidates[(p.attempts + i) % n];
    if (cluster.network().node_up(cand)) {
      target = cand;
      break;
    }
  }
  ReadRequest req;
  req.reader = p.tx;
  req.reader_node = node_.id();
  req.req_id = req_id;
  req.key = p.key;
  req.rs = p.rs;
  req.tspan = p.read_span;
  wire::post(cluster, node_.id(), target, std::move(req));
}

Timestamp Coordinator::backoff(std::uint32_t attempt) const {
  Timestamp t = kRequestTimeout;
  for (std::uint32_t i = 0; i < attempt && t < kTimeoutCap; ++i) t *= 2;
  return std::min(t, kTimeoutCap);
}

void Coordinator::arm_read_timer(std::uint64_t req_id) {
  const std::uint32_t attempt =
      pending_remote_.find(req_id)->second.attempts;
  node_.cluster().scheduler().schedule_after(backoff(attempt), [this,
                                                               req_id]() {
    auto it = pending_remote_.find(req_id);
    if (it == pending_remote_.end()) return;  // answered (or tx finished)
    ScopedLogNode log_node(node_.id());
    c_rpc_timeouts_->inc();
    PendingRemoteRead& p = it->second;
    if (p.attempts >= kMaxReadRetries) {
      // Retry budget exhausted: the transaction cannot make progress.
      abort_tx(p.tx, AbortReason::Timeout);  // erases the pending entry
      return;
    }
    ++p.attempts;
    c_rpc_retries_->inc();
    send_read_request(req_id, p);
    arm_read_timer(req_id);
  });
}

void Coordinator::on_read_reply(ReadReply reply) {
  ScopedLogNode log_node(node_.id());
  auto it = pending_remote_.find(reply.req_id);
  if (it == pending_remote_.end()) return;  // reader already gone
  PendingRemoteRead pending = std::move(it->second);
  pending_remote_.erase(it);
  store::StoreReadResult r;
  r.kind = reply.found ? store::ReadKind::Committed : store::ReadKind::NotFound;
  r.value = std::move(reply.value);
  r.writer = reply.writer;
  r.ts = reply.version_ts;
  on_read_value(pending.tx, pending.key, r, std::move(pending.promise),
                pending.read_span, pending.issued_at);
}

void Coordinator::on_read_value(const TxId& tx, Key key,
                                const store::StoreReadResult& r,
                                sim::Promise<txn::ReadResult> promise,
                                std::uint64_t read_span,
                                Timestamp issued_at) {
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) {
    txn::ReadResult dead;
    dead.aborted = true;
    promise.try_set_value(std::move(dead));
    return;
  }

  txn::ReadResult result;
  result.found = r.kind != store::ReadKind::NotFound;
  // The one place a read materializes the payload: the client-facing result
  // owns a plain string, everything upstream shared the stored buffer.
  if (r.value) result.value = *r.value;
  result.writer = r.writer;
  result.version_ts = r.ts;

  if (r.kind == store::ReadKind::Committed) {
    // Reading a final-committed version: its writer's FFC equals its commit
    // timestamp and its OLCSet is infinite (Alg. 1 lines 35-36), so only
    // FFC advances.
    rec->ffc = std::max(rec->ffc, r.ts);
    count_read(/*speculative=*/false);
  } else if (r.kind == store::ReadKind::Speculative) {
    result.speculative = true;
    txn::TxnRecord* wrec = find(r.writer);
    // In WAL mode a writer sits in phase Committed while its commit record
    // flushes (versions still local-committed until the apply callback), so
    // a read in that window legitimately classifies as speculative.
    STR_ASSERT_MSG(wrec != nullptr &&
                       (wrec->phase == txn::TxnPhase::LocalCommitted ||
                        (decision_wal_ != nullptr &&
                         wrec->phase == txn::TxnPhase::Committed)),
                   "speculative read from a non-local-committed writer");
    // Alg. 1 lines 13-14: inherit the writer's OLC floor and FFC.
    const Timestamp wolc = wrec->olc_min();
    if (wolc != kTsInfinity) {
      auto [it, inserted] = rec->olc_set.emplace(r.writer, wolc);
      if (!inserted) it->second = std::min(it->second, wolc);
    }
    rec->ffc = std::max(rec->ffc, wrec->ffc);
    // Data dependency (SPSI-4) and cascade edge.
    rec->unresolved_deps.insert(r.writer);
    wrec->add_dependent(tx);
    // Transitive snapshot membership, for write-write chaining.
    rec->snapshot_lc_writers.insert(r.writer);
    rec->snapshot_lc_writers.insert(wrec->snapshot_lc_writers.begin(),
                                    wrec->snapshot_lc_writers.end());
    count_read(/*speculative=*/true);
  } else {
    count_read(/*speculative=*/false);
  }

  txn::TxnRecord::GateWaiter w{std::move(promise), std::move(result), key,
                               node_.cluster().now(), read_span, issued_at};
  if (rec->gate_open()) {
    deliver_read(*rec, w, /*parked=*/false);
    return;
  }
  // Alg. 1 line 15: hold the value until min(OLCSet) >= FFC.
  if (tracer_->enabled()) {
    tracer_->emit({w.parked_at, rec->id, node_.id(),
                   obs::TraceEventType::GateParked, key, 0});
  }
  rec->gate_waiters.push_back(std::move(w));
}

void Coordinator::record_read_event(const TxId& tx, Key key,
                                    const TxId& writer, Timestamp version_ts,
                                    bool speculative) {
  Cluster& cluster = node_.cluster();
  auto* h = cluster.history();
  if (h == nullptr) return;
  verify::ReadEvent ev;
  ev.reader = tx;
  ev.key = key;
  ev.writer = writer;
  ev.version_ts = version_ts;
  ev.writer_state =
      speculative ? VersionState::LocalCommitted : VersionState::Committed;
  ev.at = cluster.now();
  h->on_read(ev);
}

void Coordinator::deliver_read(txn::TxnRecord& rec,
                               txn::TxnRecord::GateWaiter& w, bool parked) {
  // Save the event fields, then hand the result itself to the promise — the
  // payload string is never duplicated for bookkeeping.
  const TxId writer = w.result.writer;
  const Timestamp version_ts = w.result.version_ts;
  const bool speculative = w.result.speculative;
  if (!w.promise.try_set_value(std::move(w.result))) return;
  record_read_event(rec.id, w.key, writer, version_ts, speculative);
  const Timestamp now = node_.cluster().now();
  if (parked) rec.gate_stall_total += now - w.parked_at;
  if (rec.first_read_ready_at == 0) rec.first_read_ready_at = now;
  if (!tracer_->enabled()) return;
  if (parked) {
    tracer_->emit({now, rec.id, node_.id(), obs::TraceEventType::GateReleased,
                   w.key, now - w.parked_at});
  }
  obs::TraceEvent ev{now, rec.id, node_.id(), obs::TraceEventType::ReadReady,
                     w.key, speculative ? 1u : 0u};
  if (speculative) ev.other = writer;  // speculation-lineage edge
  tracer_->emit(ev);
  if (w.read_span == 0) return;
  if (parked) {
    // The stall is a child of the read it delayed.
    tracer_->record_span(w.read_span, rec.id, node_.id(),
                         obs::SpanKind::GateStall, w.parked_at, now, w.key, 0);
  }
  tracer_->emit_span({w.read_span, rec.trace_span, rec.id, node_.id(),
                      obs::SpanKind::Read, w.read_issued_at, now, w.key,
                      speculative ? 1u : 0u});
}

void Coordinator::reeval_gate(txn::TxnRecord& rec) {
  if (rec.gate_waiters.empty() || !rec.gate_open()) return;
  auto waiters = std::move(rec.gate_waiters);
  rec.gate_waiters.clear();
  for (auto& w : waiters) deliver_read(rec, w, /*parked=*/true);
}

void Coordinator::write(const TxId& tx, Key key, Value value) {
  write(tx, key, std::make_shared<const Value>(std::move(value)));
}

void Coordinator::write(const TxId& tx, Key key, SharedValue value) {
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) return;  // writes of dead txns no-op
  STR_ASSERT_MSG(rec->phase == txn::TxnPhase::Active,
                 "write after commit request");
  for (auto& [wkey, wvalue] : rec->writes) {
    if (wkey == key) {
      wvalue = std::move(value);
      return;
    }
  }
  rec->writes.emplace_back(key, std::move(value));
}

void Coordinator::user_abort(const TxId& tx) {
  abort_tx(tx, AbortReason::UserAbort);
}

void Coordinator::abort_tx(const TxId& tx, AbortReason reason,
                           const TxId& cascade_of) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  txn::TxnRecord* rec_ptr = find(tx);
  if (rec_ptr == nullptr || rec_ptr->finished()) return;
  txn::TxnRecord& rec = *rec_ptr;
  rec.phase = txn::TxnPhase::Aborted;
  rec.abort_reason = reason;
  if (cluster.protocol().recovery.enabled) {
    decided_[rec.id] = Decision{TxDecision::Aborted, 0, cluster.now()};
  }

  // Remove this transaction's uncommitted versions from local replicas and
  // the cache; parked readers re-route to older versions. A transaction
  // that never asked to commit is grouped here, partition ids only.
  if (!rec.grouped()) {
    group_writes(rec, cluster.pmap(), node_.id(), /*with_updates=*/false);
  }
  for (const auto& part : rec.local_parts) {
    node_.replica(part.partition)->apply_abort(rec.id);
  }
  node_.cache().abort_tx(rec.id);

  // Cascade: everything that speculatively read from us dies too (SPSI-4).
  std::vector<TxId> dependents = rec.dependents;
  for (const TxId& rid : dependents) {
    abort_tx(rid, AbortReason::CascadingAbort, rec.id);
  }

  // Tell every remote replica that may hold (or later receive) our
  // pre-commits to drop them; tombstones make late arrivals harmless.
  const auto abort_at = [&](NodeId n, const auto& parts) {
    for (const auto& part : parts) {
      if (!cluster.pmap().replicates(n, part.partition)) continue;
      wire::post(cluster, node_.id(), n,
                 AbortMessage{rec.id, part.partition, rec.trace_span});
    }
  };
  for (NodeId n : rec.remote_replica_nodes) {
    abort_at(n, rec.local_parts);
    abort_at(n, rec.remote_parts);
  }
  forget_payloads(rec);

  fail_outstanding_reads(rec);
  finish(rec, cascade_of);
}

sim::Future<txn::TxFinalResult> Coordinator::outcome_future(const TxId& tx) {
  sim::Promise<txn::TxFinalResult> promise(node_.cluster().scheduler());
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr) {
    // Never registered: begin() was called on a down node (clients obtain
    // the outcome future immediately after begin(), so an erased record
    // cannot be the cause here). Attribute to the crash, not a cascade.
    txn::TxFinalResult dead;
    dead.outcome = TxOutcome::Aborted;
    dead.abort_reason = AbortReason::NodeCrash;
    promise.set_value(dead);
  } else {
    rec->outcome_waiters.push_back(promise);
  }
  return promise.future();
}

sim::Future<txn::TxFinalResult> Coordinator::commit(const TxId& tx) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  sim::Promise<txn::TxFinalResult> promise(cluster.scheduler());

  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->phase == txn::TxnPhase::Aborted) {
    // rec == nullptr is almost always a TxId handed out by begin() on a
    // down node (never registered), so attribute it to the crash. A record
    // torn down by a racing abort also lands here, but its true reason was
    // already delivered through the outcome future registered at begin time.
    txn::TxFinalResult dead;
    dead.outcome = TxOutcome::Aborted;
    dead.abort_reason =
        rec == nullptr ? AbortReason::NodeCrash : rec->abort_reason;
    promise.set_value(dead);
    return promise.future();
  }
  STR_ASSERT_MSG(!rec->commit_requested, "commit requested twice");
  rec->commit_requested = true;
  rec->commit_requested_at = cluster.now();
  rec->outcome_waiters.push_back(promise);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), tx, node_.id(),
                   obs::TraceEventType::CommitRequested, rec->writes.size(),
                   0});
  }

  if (rec->writes.empty()) {
    // Read-only: commit as soon as every data dependency is final (SPSI-4).
    maybe_finalize(*rec);
    return promise.future();
  }

  // One write-set grouping serves both certification phases, the abort and
  // the apply; the shared per-partition lists ride every message of the
  // fan-out.
  group_writes(*rec, cluster.pmap(), node_.id(), /*with_updates=*/true);
  if (!local_certification(*rec)) {
    return promise.future();  // aborted inside local_certification
  }
  start_global_certification(*rec);
  maybe_finalize(*rec);  // all-local write sets may be ready immediately
  return promise.future();
}

bool Coordinator::local_certification(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const FlatSet<TxId>* chain =
      rec.snapshot_lc_writers.empty() ? nullptr : &rec.snapshot_lc_writers;

  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::LocalCertStart, rec.writes.size(),
                   0});
  }

  // Local 2PC (synchronous: all participants are on this node). Collect
  // proposals; on any conflict, abort (prepared participants are rolled
  // back by the abort path).
  Timestamp lc = rec.rs + 1;
  bool conflict = false;
  for (const auto& part : rec.local_parts) {
    PartitionActor* actor = node_.replica(part.partition);
    STR_ASSERT(actor != nullptr);
    store::PrepareResult pr =
        actor->prepare_local(rec.id, rec.rs, *part.updates, chain);
    if (!pr.ok) {
      conflict = true;
      break;
    }
    lc = std::max(lc, pr.proposed_ts);
  }
  const bool use_cache = spec_active() && !rec.cache_writes.empty();
  if (!conflict && use_cache) {
    store::PrepareResult pr = node_.cache().prepare(
        rec.id, rec.rs, rec.cache_writes, cluster.protocol().precise_clocks,
        node_.physical_now(), chain);
    if (!pr.ok) {
      conflict = true;
    } else {
      lc = std::max(lc, pr.proposed_ts);
    }
  }
  if (conflict) {
    abort_tx(rec.id, AbortReason::LocalCertification);
    return false;
  }

  // Local commit: flip pre-committed versions to local-committed.
  rec.lc = lc;
  rec.max_proposed_ts = lc;
  rec.phase = txn::TxnPhase::LocalCommitted;
  // Pre-commit locks are held from here. Under active speculation the
  // local-committed versions are immediately observable by local readers,
  // so the *effective* lock hold ends now; otherwise readers stay blocked
  // until the final outcome (visible_at set in finalize_commit).
  rec.cert_at = cluster.now();
  if (spec_active()) rec.visible_at = rec.cert_at;
  for (const auto& part : rec.local_parts) {
    node_.replica(part.partition)->apply_local_commit(rec.id, lc);
  }
  if (use_cache) node_.cache().local_commit(rec.id, lc);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::LocalCertEnd, lc, 0});
    tracer_->record_span(rec.trace_span, rec.id, node_.id(),
                         obs::SpanKind::LocalCert, rec.commit_requested_at,
                         cluster.now(), rec.writes.size(), 0);
  }

  // An unsafe transaction (updated non-local keys) pins its own read
  // snapshot into its OLCSet (Alg. 1 lines 23-24) so that anyone who reads
  // from it inherits the hazard.
  rec.unsafe_txn = !rec.remote_parts.empty();
  if (rec.unsafe_txn && spec_active()) {
    rec.olc_set.emplace(rec.id, rec.rs);
  }

  if (cluster.protocol().externalize_local_commit) {
    rec.externalized = true;
    rec.externalized_at = cluster.now();
  }

  if (auto* h = cluster.history()) {
    verify::WriteSetEvent ev;
    ev.tx = rec.id;
    ev.ts = lc;
    ev.at = cluster.now();
    ev.keys.reserve(rec.writes.size());
    for (const auto& [key, value] : rec.writes) ev.keys.push_back(key);
    h->on_local_commit(ev);
  }
  return true;
}

void Coordinator::start_global_certification(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const PartitionMap& pmap = cluster.pmap();
  rec.prepares_sent_at = cluster.now();

  // Every touched partition: the locally replicated ones, then the others.
  const auto certify = [&](const txn::TxnRecord::PartitionWrites& part) {
    const PartitionId pid = part.partition;
    const auto& replicas = pmap.replicas(pid);
    for (NodeId n : replicas) {
      if (n != node_.id()) rec.remote_replica_nodes.insert(n);
    }
    // One certification leg span per expected ack; the id rides the message
    // to the direct target and closes on the first matching PrepareReply.
    const auto open_leg = [&](NodeId n) {
      if (tracer_->enabled()) {
        rec.leg_spans.push_back(
            {pid, n, tracer_->next_span_id(), cluster.now()});
      }
    };
    if (pmap.is_master(node_.id(), pid)) {
      // We are the master: replicate the (already locally certified)
      // pre-commit to the slaves; each slave replies with a proposal.
      SmallVec<NodeId, 8> slaves;
      for (NodeId slave : replicas) {
        if (slave == node_.id()) continue;
        ++rec.awaiting_prepares;
        rec.prepare_expected.emplace(pid, slave);
        open_leg(slave);
        slaves.push_back(slave);
      }
      send_replicates(rec, pid, {slaves.begin(), slaves.end()}, part.updates);
    } else {
      // Remote master certifies; it replicates to its slaves, each of which
      // (except this node, already covered by local certification) replies.
      const NodeId master = pmap.master(pid);
      ++rec.awaiting_prepares;  // master's reply
      rec.prepare_expected.emplace(pid, master);
      open_leg(master);
      for (NodeId n : replicas) {
        if (n != master && n != node_.id()) {
          ++rec.awaiting_prepares;  // slaves
          rec.prepare_expected.emplace(pid, n);
          open_leg(n);
        }
      }
      send_prepare(rec, pid, part.updates);
    }
  };
  for (const auto& part : rec.local_parts) certify(part);
  for (const auto& part : rec.remote_parts) certify(part);
  // All-local write set with no remote replicas: the WAN phase is empty.
  if (rec.awaiting_prepares == 0) {
    rec.prepares_done_at = rec.prepares_sent_at;
  } else if (cluster.protocol().recovery.enabled) {
    arm_prepare_timer(rec.id);
  }
}

void Coordinator::send_prepare(const txn::TxnRecord& rec, PartitionId pid,
                               SharedUpdates updates) {
  Cluster& cluster = node_.cluster();
  const NodeId master = cluster.pmap().master(pid);
  PrepareRequest req;
  req.tx = rec.id;
  req.coordinator = node_.id();
  req.partition = pid;
  req.rs = rec.rs;
  req.updates = std::move(updates);
  req.tspan = rec.leg_span_of(pid, master);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::PrepareSent, master, pid});
  }
  // The request is only read by the handler (updates are shared and
  // immutable), so a duplicated delivery replays the same intact payload.
  wire::post(cluster, node_.id(), master, std::move(req));
}

void Coordinator::send_replicates(const txn::TxnRecord& rec, PartitionId pid,
                                  std::span<const NodeId> slaves,
                                  SharedUpdates updates) {
  Cluster& cluster = node_.cluster();
  ReplicateRequest rep;
  rep.tx = rec.id;
  rep.coordinator = node_.id();
  rep.partition = pid;
  rep.rs = rec.rs;
  rep.updates = std::move(updates);
  if (!tracer_->enabled()) {
    wire::post_fanout(cluster, node_.id(), slaves, rep);
    return;
  }
  // Traced, each leg carries its own certification-leg span, so the legs
  // are encoded one by one.
  for (NodeId slave : slaves) {
    rep.tspan = rec.leg_span_of(pid, slave);
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::PrepareSent, slave, pid});
    wire::post(cluster, node_.id(), slave, rep);
  }
}

void Coordinator::resend_prepares(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const PartitionMap& pmap = cluster.pmap();
  // Partitions with at least one missing ack. For partitions mastered here
  // the replicate goes straight to the silent slave; for remote-mastered
  // partitions the prepare is re-sent to the master, which re-answers
  // idempotently and re-replicates to its slaves (any of which may be the
  // one whose reply was lost).
  FlatSet<PartitionId> remote_missing;
  for (const auto& [pid, n] : rec.prepare_expected) {
    if (rec.prepare_acks.contains({pid, n})) continue;
    if (pmap.is_master(node_.id(), pid)) {
      c_rpc_retries_->inc();
      send_replicates(rec, pid, {&n, 1}, updates_of(rec, pid));
    } else {
      remote_missing.insert(pid);
    }
  }
  for (PartitionId pid : remote_missing) {
    c_rpc_retries_->inc();
    send_prepare(rec, pid, updates_of(rec, pid));
  }
}

void Coordinator::arm_prepare_timer(const TxId& tx) {
  txn::TxnRecord* rec = find(tx);
  STR_ASSERT(rec != nullptr);
  const std::uint64_t round = rec->prepare_round;
  node_.cluster().scheduler().schedule_after(
      backoff(rec->prepare_attempts), [this, tx, round]() {
        txn::TxnRecord* r = find(tx);
        if (r == nullptr || r->finished()) return;
        if (r->awaiting_prepares == 0 || r->prepare_round != round) return;
        ScopedLogNode log_node(node_.id());
        c_rpc_timeouts_->inc();
        if (r->prepare_attempts >= kMaxPrepareRetries) {
          abort_tx(tx, AbortReason::Timeout);
          return;
        }
        ++r->prepare_attempts;
        ++r->prepare_round;
        resend_prepares(*r);
        arm_prepare_timer(tx);
      });
}

void Coordinator::on_prepare_reply(PrepareReply reply) {
  ScopedLogNode log_node(node_.id());
  txn::TxnRecord* rec = find(reply.tx);
  if (rec == nullptr || rec->finished()) return;  // already decided
  // Idempotence: duplicated deliveries and re-sent prepares both produce a
  // second reply from the same (partition, node); only the first counts.
  if (!rec->prepare_acks.emplace(reply.partition, reply.from).second) return;
  if (tracer_->enabled()) {
    const Timestamp now = node_.cluster().now();
    tracer_->emit({now, reply.tx, node_.id(),
                   obs::TraceEventType::PrepareAck, reply.from,
                   reply.prepared ? 0u : 1u});
    for (const txn::TxnRecord::LegSpan& l : rec->leg_spans) {
      if (l.partition == reply.partition && l.node == reply.from) {
        tracer_->emit_span({l.span, rec->trace_span, reply.tx, node_.id(),
                            obs::SpanKind::PrepareLeg, l.sent_at, now,
                            reply.partition, reply.from});
        break;
      }
    }
  }
  if (!reply.prepared) {
    abort_tx(reply.tx, AbortReason::GlobalCertification);
    return;
  }
  rec->max_proposed_ts = std::max(rec->max_proposed_ts, reply.proposed_ts);
  STR_ASSERT(rec->awaiting_prepares > 0);
  --rec->awaiting_prepares;
  if (rec->awaiting_prepares == 0) {
    rec->prepares_done_at = node_.cluster().now();
  }
  maybe_finalize(*rec);
}

void Coordinator::maybe_finalize(txn::TxnRecord& rec) {
  if (!rec.commit_requested || rec.finished()) return;
  if (rec.awaiting_prepares > 0) return;
  if (!rec.unresolved_deps.empty()) {
    // SPSI-4 wait: certification is done but a speculatively-read writer's
    // final outcome is still unknown.
    if (rec.dep_wait_start == 0) {
      rec.dep_wait_start = node_.cluster().now();
      if (tracer_->enabled()) {
        tracer_->emit({rec.dep_wait_start, rec.id, node_.id(),
                       obs::TraceEventType::DepWait,
                       rec.unresolved_deps.size(), 0});
      }
    }
    return;
  }
  finalize_commit(rec);
}

void Coordinator::finalize_commit(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  STR_ASSERT(rec.unresolved_deps.empty());

  const Timestamp ct = rec.writes.empty()
                           ? rec.rs
                           : std::max(rec.max_proposed_ts, rec.rs + 1);
  rec.fc = ct;
  rec.phase = txn::TxnPhase::Committed;
  if (cluster.protocol().recovery.enabled && decision_wal_ == nullptr) {
    // Durable decision record: answers participant probes after a crash.
    // In WAL mode this entry is written only once the decision record is
    // actually synced — answering a probe "Committed" from a decision a
    // crash could still erase would let a participant apply a commit this
    // coordinator later presumes aborted.
    decided_[rec.id] = Decision{TxDecision::Committed, ct, cluster.now()};
  }

  // Read-only transactions skip the barrier: a crash can lose nothing of
  // theirs, and no participant will ever probe for their decision.
  if (decision_wal_ == nullptr || rec.writes.empty()) {
    finalize_commit_apply(rec);
    return;
  }

  // Durability barrier (docs/DURABILITY.md): the commit record must be on
  // stable storage at every local replica *before* the decision record, so
  // "decision durable" implies "writes durable"; and the apply (version
  // flips, fan-out, client ack) waits for the decision sync — nothing is
  // acknowledged that a crash could un-commit. A crash inside the window
  // drops these callbacks with the logs' pending tails; on_crash resolves
  // the record from the decision log's durable prefix instead.
  const TxId tx = rec.id;
  auto on_writes_durable = [this, tx, ct]() {
    txn::TxnRecord* r = find(tx);
    if (r == nullptr || r->phase != txn::TxnPhase::Committed) return;
    auto on_decided = [this, tx, ct, appended_at = node_.cluster().now()]() {
      txn::TxnRecord* r2 = find(tx);
      if (r2 == nullptr || r2->phase != txn::TxnPhase::Committed) return;
      // The commit point: the local sync, plus quorum-1 member acks with
      // the quorum on.
      t_decision_durable_->record(node_.cluster().now() - appended_at);
      r2->wal_decision_end = 0;  // decision consumed; offset not live
      // Now — and only now — the decision may answer probes.
      decided_[tx] =
          Decision{TxDecision::Committed, ct, node_.cluster().now()};
      finalize_commit_apply(*r2);
    };
    if (rlog_ != nullptr) {
      // Quorum commit point (docs/DURABILITY.md §8): the apply waits for
      // the decision to be durable locally AND on quorum-1 replica-group
      // members. The fan-out starts only after the local fsync, so a
      // member's copy always implies this node's replay agrees.
      r->wal_decision_end =
          rlog_->append(tx, ct, node_.cluster().now(), std::move(on_decided));
      return;
    }
    storage::LogBuffer frame;
    storage::encode_decision(frame, tx, ct, node_.cluster().now());
    r->wal_decision_end =
        decision_wal_->append(std::move(frame), std::move(on_decided));
  };
  if (rec.local_parts.empty()) {
    on_writes_durable();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(rec.local_parts.size());
  for (const auto& part : rec.local_parts) {
    node_.replica(part.partition)->log_commit(
        tx, ct, [remaining, next = on_writes_durable]() mutable {
          if (--*remaining == 0) next();
        });
  }
}

void Coordinator::finalize_commit_apply(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const Timestamp ct = rec.fc;
  // Without speculation the writes only become observable now.
  if (rec.cert_at != 0 && rec.visible_at == 0) rec.visible_at = cluster.now();

  // Ext-Spec surfaces read-only results at commit time (they have no global
  // certification to speculate over); recording this keeps the speculative-
  // latency population comparable with final latency.
  if (cluster.protocol().externalize_local_commit && !rec.externalized) {
    rec.externalized = true;
    rec.externalized_at = cluster.now();
  }

  // Apply locally: flip local-committed versions to committed, drop the
  // cached remote-key copies (Alg. 1 line 44).
  for (const auto& part : rec.local_parts) {
    // In WAL mode the durability barrier already logged the commit record.
    node_.replica(part.partition)->apply_commit(rec.id, ct);
  }
  node_.cache().final_commit(rec.id);

  // Alg. 1 lines 37-43: resolve dependents before the commit is visible.
  resolve_dependents_on_commit(rec);

  // Fan the decision out to every remote replica of an updated partition.
  const auto commit_at = [&](const auto& parts) {
    for (const auto& part : parts) {
      SmallVec<NodeId, 8> remote;
      for (NodeId n : cluster.pmap().replicas(part.partition)) {
        if (n != node_.id()) remote.push_back(n);
      }
      wire::post_fanout(
          cluster, node_.id(), {remote.begin(), remote.end()},
          CommitMessage{rec.id, part.partition, ct, rec.trace_span});
    }
  };
  commit_at(rec.local_parts);
  commit_at(rec.remote_parts);
  forget_payloads(rec);

  if (rec.dep_wait_start != 0) {
    tracer_->record_span(rec.trace_span, rec.id, node_.id(),
                         obs::SpanKind::DepWait, rec.dep_wait_start,
                         cluster.now(), 0, 0);
  }
  // Quorum mode: the client is about to see Commit. Note it so a recovery
  // path that later aborts this transaction is flagged as a lost commit.
  if (rlog_ != nullptr && !rec.writes.empty()) {
    cluster.note_commit_acked(rec.id);
  }
  finish(rec);
}

void Coordinator::finish(txn::TxnRecord& rec, const TxId& cascade_of,
                         bool in_doubt) {
  const Timestamp now = node_.cluster().now();
  const bool committed = rec.phase == txn::TxnPhase::Committed;
  if (committed) {
    report_commit(rec.id, rec.fc, rec.writes, now, rec.first_activation,
                  rec.externalized_at);
    t_commit_snap_dist_->record(rec.fc - rec.rs);
  } else if (!in_doubt) {
    report_abort(rec.id, rec.abort_reason, now, rec.externalized);
  }
  record_phase_timers(rec, now);
  if (tracer_->enabled()) {
    // The commit timestamp of a commit, the reason of an abort.
    const std::uint64_t outcome =
        committed ? rec.fc : static_cast<std::uint64_t>(rec.abort_reason);
    const auto type = committed ? obs::TraceEventType::TxCommit
                                : obs::TraceEventType::TxAbort;
    obs::TraceEvent ev{now, rec.id, node_.id(), type, outcome,
                       committed ? rec.fc - rec.rs : 0};
    ev.other = cascade_of;  // root-cause edge of the cascade-abort tree
    tracer_->emit(ev);
    if (rec.trace_span != 0) {
      tracer_->emit_span({rec.trace_span, 0, rec.id, node_.id(),
                          obs::SpanKind::Txn, rec.attempt_start, now,
                          committed ? 1u : 0u, outcome});
    }
  }
  deliver_outcome(rec);
  erase(rec.id);
}

void Coordinator::record_phase_timers(const txn::TxnRecord& rec,
                                      Timestamp final_at) {
  if (rec.first_read_ready_at != 0) {
    t_first_read_->record(rec.first_read_ready_at - rec.attempt_start);
  }
  // Gate stall is recorded only for transactions that actually parked, so
  // the timer's mean reads "stall duration when stalled" (its count gives
  // the stall frequency).
  if (rec.gate_stall_total != 0) t_gate_stall_->record(rec.gate_stall_total);
  if (rec.cert_at != 0) {
    // Local certification is a synchronous local 2PC: zero virtual duration
    // by construction. Recorded anyway so the breakdown states that fact.
    t_local_cert_->record(rec.cert_at - rec.commit_requested_at);
    const Timestamp visible = rec.visible_at != 0 ? rec.visible_at : final_at;
    t_lock_hold_->record(visible - rec.cert_at);
    t_lock_hold_total_->record(final_at - rec.cert_at);
  }
  if (rec.prepares_sent_at != 0) {
    const Timestamp done =
        rec.prepares_done_at != 0 ? rec.prepares_done_at : final_at;
    t_wan_prepare_->record(done - rec.prepares_sent_at);
  }
  if (rec.dep_wait_start != 0) {
    t_dep_wait_->record(final_at - rec.dep_wait_start);
  }
}

void Coordinator::resolve_dependents_on_commit(txn::TxnRecord& rec) {
  const Timestamp ct = rec.fc;
  std::vector<TxId> dependents = rec.dependents;
  for (const TxId& rid : dependents) {
    txn::TxnRecord* reader = find(rid);
    if (reader == nullptr || reader->finished()) continue;
    if (reader->rs >= ct) {
      // The writer's final timestamp is inside the reader's snapshot: the
      // speculation was correct. The reader inherits the commit.
      reader->olc_set.erase(rec.id);
      reader->ffc = std::max(reader->ffc, ct);
      reader->unresolved_deps.erase(rec.id);
      if (tracer_->enabled()) {
        tracer_->emit({node_.cluster().now(), rid, node_.id(),
                       obs::TraceEventType::DepResolved,
                       reader->unresolved_deps.size(), 0});
      }
      reeval_gate(*reader);
      maybe_finalize(*reader);
    } else {
      // SPSI-1 would be violated: the version the reader observed now has a
      // commit timestamp beyond its snapshot.
      abort_tx(rid, AbortReason::Misspeculation);
    }
  }
}

void Coordinator::on_decision_request(DecisionRequest req) {
  ScopedLogNode log_node(node_.id());
  Cluster& cluster = node_.cluster();
  // The decision held here (this node's own, or its replica copy of
  // another coordinator's), else presumed abort for an own transaction
  // that is neither decided nor live: this node never logged a commit for
  // it, so none can have happened. Otherwise Unknown: an own transaction
  // still deciding, or no copy here — which proves nothing about the
  // quorum, so a member never presumes abort.
  DecisionReply rep;
  rep.tx = req.tx;
  rep.partition = req.partition;
  rep.from = node_.id();
  if (!find_decision(req.tx, &rep.decision, &rep.commit_ts) &&
      req.tx.node == node_.id() && find(req.tx) == nullptr) {
    rep.decision = TxDecision::Aborted;
  }
  rep.tspan = tracer_->record_span(
      req.tspan, req.tx, node_.id(), obs::SpanKind::Handle, cluster.now(),
      cluster.now(),
      static_cast<std::uint64_t>(wire::MessageType::kDecisionRequest),
      req.partition);
  wire::post(cluster, node_.id(), req.from, std::move(rep));
}

void Coordinator::on_decision_replicate(const DecisionReplicate& m) {
  ScopedLogNode log_node(node_.id());
  Cluster& cluster = node_.cluster();
  STR_ASSERT_MSG(decision_wal_ != nullptr,
                 "decision replication without a decision log");
  if (!node_.up()) return;
  // Freeze the copy set the instant the origin dies: a census may already
  // be counting NoRecord answers over the surviving members, and a copy
  // materializing from a frame that was in flight at the crash would let
  // two probes of the same round disagree. Dropping is safe — the origin
  // fsynced before fanning out, so the decision itself is never lost, only
  // (at worst) unreachable until the origin restarts.
  if (!cluster.node_up(m.origin)) return;
  // Duplicate copies (retransmits) are harmless in the log — replay
  // overwrites the same entry — but skip the append when the copy is
  // already durable here to keep the member log from growing per resend.
  if (decided_committed(m.tx)) {
    wire::post(cluster, node_.id(), m.origin,
               DecisionReplicateAck{m.tx, node_.id()});
    return;
  }
  storage::LogBuffer frame;
  storage::encode_decision(frame, m.tx, m.commit_ts, m.decided_at);
  decision_wal_->append(
      std::move(frame),
      [this, tx = m.tx, ct = m.commit_ts, origin = m.origin]() {
        if (!node_.up()) return;  // crashed while the copy was flushing
        // The copy is durable: it now answers census probes and survives
        // this node's own restart (replay_decisions rebuilds it).
        decided_[tx] =
            Decision{TxDecision::Committed, ct, node_.cluster().now()};
        wire::post(node_.cluster(), node_.id(), origin,
                   DecisionReplicateAck{tx, node_.id()});
      });
}

void Coordinator::on_decision_replicate_ack(const DecisionReplicateAck& m) {
  ScopedLogNode log_node(node_.id());
  if (rlog_ == nullptr || !node_.up()) return;
  rlog_->on_ack(m.tx, m.from);
}

void Coordinator::on_crash() {
  // Abort in sorted TxId order: txns_ is an unordered_map and the abort path
  // has observable side effects (metrics, history, cascades).
  std::vector<TxId> live;
  live.reserve(txns_.size());
  for (const auto& [id, rec] : txns_) live.push_back(id);
  std::sort(live.begin(), live.end());
  // Quorum mode: drop the ack barriers and invalidate retransmit timers
  // before the sweep; the decisions themselves outlive the tracking.
  if (rlog_ != nullptr) rlog_->on_crash();
  // WAL mode. The node crashed the media first, so durable_prefix() is the
  // final word: a transaction in its commit-durability window committed iff
  // its decision record made that prefix. Offsets of live records are valid
  // against it — compaction only rewrites an idle log, and a pending
  // decision sync keeps the log non-idle. Without a WAL no record is ever
  // left in that window: the apply runs inline.
  const std::uint64_t valid =
      decision_wal_ == nullptr ? 0 : decision_wal_->durable_prefix();
  for (const TxId& id : live) {
    txn::TxnRecord* rec = find(id);
    if (rec == nullptr) continue;  // cascaded away by an earlier abort
    // Note finished() is TRUE for the commit-durability window (phase is
    // Committed, only the apply is pending) — check the phase, not it.
    if (rec->phase == txn::TxnPhase::Committed) {
      const bool durable =
          rec->wal_decision_end != 0 && rec->wal_decision_end <= valid;
      crash_teardown_committed(*rec, durable);
    } else {
      abort_tx(id, AbortReason::NodeCrash);
    }
  }
  pending_remote_.clear();
  // With a WAL, decided_ is no longer magically durable: forget everything
  // and let replay_decisions() rebuild exactly the synced prefix on restart.
  if (decision_wal_ != nullptr) decided_.clear();
}

void Coordinator::crash_teardown_committed(txn::TxnRecord& rec,
                                           bool durable) {
  const bool in_doubt = durable && rlog_ != nullptr;
  if (durable && !in_doubt) {
    // Decision durable: the transaction IS committed — replay will install
    // its writes and this node will answer probes Committed. Tear down as a
    // commit, minus the store application and fan-out (the store is about
    // to be wiped and the network already dropped this endpoint).
    node_.cache().final_commit(rec.id);
  } else {
    if (in_doubt) {
      // Quorum mode, decision locally durable, apply never ran: the quorum
      // barrier was still open, so whether the commit point was reached
      // depends on state this dead node cannot see (member copies,
      // in-flight acks). Neither the single-copy rule ("durable =>
      // committed") nor presumed abort is sound here — a census over the
      // surviving members may conclude either way. Park the fate in the
      // cluster's in-doubt registry; exactly one recovery path (own replay,
      // a participant census, or a decision reply) resolves and reports it.
      Cluster::InDoubtInfo info;
      info.commit_ts = rec.fc;
      info.reg_at = node_.cluster().now();
      info.first_activation = rec.first_activation;
      info.externalized_at = rec.externalized_at;
      info.externalized = rec.externalized;
      info.writes = rec.writes;
      node_.cluster().register_in_doubt(rec.id, std::move(info));
    }
    // The client sees a crash abort (standard 2PC: an unacknowledged
    // outcome in doubt may still resolve Commit later). A decision that
    // never reached stable storage sent no ack and no participant can hold
    // a commit record for it: presumed abort, exactly what replay and
    // orphan probes will conclude. Dependents die in the same on_crash
    // sweep; no cascade call needed.
    rec.phase = txn::TxnPhase::Aborted;
    rec.abort_reason = AbortReason::NodeCrash;
    node_.cache().abort_tx(rec.id);
  }
  fail_outstanding_reads(rec);
  finish(rec, kNoTx, in_doubt);
}

void Coordinator::replay_decisions() {
  STR_ASSERT(decision_wal_ != nullptr);
  decided_.clear();
  const storage::WalScanResult scan =
      decision_wal_->replay([this](const storage::WalRecord& rec) {
        if (rec.type != storage::WalRecordType::kDecision) return;
        decided_[rec.tx] = Decision{TxDecision::Committed, rec.ts, rec.at};
      });
  if (scan.torn) {
    STR_INFO("node %u decision log torn; recovered %llu bytes",
             static_cast<unsigned>(node_.id()),
             static_cast<unsigned long long>(scan.valid_bytes));
  }
  // Quorum mode: transactions that were inside their quorum barrier at the
  // crash sit in the cluster's in-doubt registry. Our own durable decision
  // is authoritative — the partition replay below installs the writes — so
  // the parked commit resolves here (first resolver wins; a census that
  // beat us to it already emitted the event). Replica copies of OTHER
  // coordinators' decisions stay out: they resolve when a participant
  // census actually applies the commit.
  if (rlog_ != nullptr) {
    std::vector<TxId> own;
    for (const auto& [tx, d] : decided_) {
      if (tx.node == node_.id() && d.decision == TxDecision::Committed) {
        own.push_back(tx);
      }
    }
    std::sort(own.begin(), own.end());
    Cluster& cluster = node_.cluster();
    for (const TxId& tx : own) {
      cluster.resolve_in_doubt(node_.id(), tx, true);
    }
  }
}

void Coordinator::maintain(Timestamp now) {
  if (decided_.empty() && decision_wal_ == nullptr) return;
  const Timestamp cutoff =
      now > kDecisionRetention ? now - kDecisionRetention : 0;
  std::erase_if(decided_,
                [cutoff](const auto& kv) { return kv.second.at < cutoff; });
  // Size-triggered decision-log compaction: rewrite the surviving entries.
  // Only when idle — a pending decision sync holds a live offset into the
  // log that a rewrite would invalidate.
  if (decision_wal_ != nullptr && node_.up() && decision_wal_->idle()) {
    if (decision_wal_->end_offset() > kDecisionLogMaxBytes) {
      std::vector<std::pair<TxId, Decision>> keep_entries(decided_.begin(),
                                                          decided_.end());
      std::sort(keep_entries.begin(), keep_entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      storage::LogBuffer log;
      for (const auto& [tx, d] : keep_entries) {
        if (d.decision != TxDecision::Committed) continue;
        storage::encode_decision(log, tx, d.commit_ts, d.at);
      }
      decision_wal_->rewrite(std::move(log));
    }
  }
}

void Coordinator::forget_payloads(const txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  if (!cluster.wire_mode() || rec.remote_replica_nodes.empty()) return;
  for (const auto& part : rec.local_parts) {
    cluster.payloads().forget(rec.id, part.partition);
  }
  for (const auto& part : rec.remote_parts) {
    cluster.payloads().forget(rec.id, part.partition);
  }
}

void Coordinator::deliver_outcome(txn::TxnRecord& rec) {
  txn::TxFinalResult result;
  if (rec.phase == txn::TxnPhase::Committed) {
    result.outcome = TxOutcome::Committed;
    result.commit_ts = rec.fc;
  } else {
    result.outcome = TxOutcome::Aborted;
    result.abort_reason = rec.abort_reason;
  }
  result.externalized_at = rec.externalized_at;
  for (auto& p : rec.outcome_waiters) p.try_set_value(result);
  rec.outcome_waiters.clear();
}

void Coordinator::fail_outstanding_reads(txn::TxnRecord& rec) {
  txn::ReadResult dead;
  dead.aborted = true;
  for (auto& p : rec.outstanding_reads) p.try_set_value(dead);
  rec.outstanding_reads.clear();
  rec.gate_waiters.clear();
}

void Coordinator::erase(const TxId& tx) {
  // Pending remote-read entries for this transaction are dropped (their
  // promises were already fulfilled with aborted=true); a late reply finds
  // no entry and is ignored.
  std::erase_if(pending_remote_,
                [&tx](const auto& kv) { return kv.second.tx == tx; });
  auto it = txns_.find(tx);
  if (it == txns_.end()) return;
  // Recycle the record: reset now (released promises and shared payloads
  // should not outlive the transaction), park it for the next begin().
  it->second->reset();
  record_pool_.push_back(std::move(it->second));
  txns_.erase(it);
  g_live_->add(-1);
}

}  // namespace str::protocol
