#include "wire/dispatch.hpp"

#include <type_traits>
#include <utility>
#include <variant>

#include "common/assert.hpp"
#include "protocol/cluster.hpp"
#include "protocol/coordinator.hpp"
#include "protocol/node.hpp"
#include "protocol/partition_actor.hpp"
#include "protocol/partition_map.hpp"

namespace str::wire {

using protocol::Cluster;
using protocol::PartitionActor;

namespace {

/// Replica of `pid` on node `to`; a miss is a routing bug, not bad input —
/// frames only reach dispatch after the checksum proved them intact.
PartitionActor* replica_of(Cluster& cl, NodeId to, PartitionId pid) {
  PartitionActor* actor = cl.node(to).replica(pid);
  STR_ASSERT(actor != nullptr);
  return actor;
}

/// Decision application is fire-and-forget — the actor keeps no per-message
/// state — so its server-side Handle span is stitched here, at the delivery
/// boundary, instead of inside the actor (which also serves local calls that
/// involve no network hop).
template <class M>
void trace_delivery(Cluster& cl, NodeId to, const M& m) {
  obs::Tracer& tracer = cl.tracer();
  if (!tracer.enabled()) return;
  tracer.emit_span({tracer.next_span_id(), m.tspan, m.tx, to,
                    obs::SpanKind::Handle, cl.now(), cl.now(),
                    static_cast<std::uint64_t>(type_tag<M>()), m.partition});
}

/// Record a prepare's or replicate's write payloads in the cluster's table:
/// the receivers' decode resolves their copies of (tx, key) back to these
/// (wire/payload_table.hpp).
void record_payloads(Cluster& cl, const TxId& tx,
                     const protocol::SharedUpdates& updates) {
  if (updates == nullptr) return;
  for (const auto& [key, value] : *updates) {
    if (value != nullptr) cl.payloads().record(tx, key, value);
  }
}

}  // namespace

void deliver(Cluster& cl, NodeId to, const protocol::ReadRequest& m) {
  const PartitionId pid = protocol::PartitionMap::partition_of(m.key);
  replica_of(cl, to, pid)->handle_remote_read(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::ReadReply& m) {
  cl.node(to).coordinator().on_read_reply(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::PrepareRequest& m) {
  replica_of(cl, to, m.partition)->handle_prepare(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::PrepareReply& m) {
  cl.node(to).coordinator().on_prepare_reply(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::ReplicateRequest& m) {
  replica_of(cl, to, m.partition)->handle_replicate(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::CommitMessage& m) {
  trace_delivery(cl, to, m);
  replica_of(cl, to, m.partition)->apply_commit(m.tx, m.commit_ts);
}

void deliver(Cluster& cl, NodeId to, const protocol::AbortMessage& m) {
  trace_delivery(cl, to, m);
  replica_of(cl, to, m.partition)->apply_abort(m.tx);
}

void deliver(Cluster& cl, NodeId to, const protocol::DecisionRequest& m) {
  cl.node(to).coordinator().on_decision_request(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::DecisionReply& m) {
  replica_of(cl, to, m.partition)->on_decision_reply(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::DecisionReplicate& m) {
  cl.node(to).coordinator().on_decision_replicate(m);
}

void deliver(Cluster& cl, NodeId to, const protocol::DecisionReplicateAck& m) {
  // kAck answers the coordinator's replicate fan-out; kCommitted/kNoRecord
  // answer a participant replica's census probe (the ack carries the
  // probing partition so it routes back to the waiting actor).
  if (m.kind == protocol::DecisionAckKind::kAck) {
    cl.node(to).coordinator().on_decision_replicate_ack(m);
    return;
  }
  replica_of(cl, to, m.partition)->on_census_reply(m);
}

DecodeStatus dispatch_frame(Cluster& cl, NodeId to, const std::uint8_t* data,
                            std::size_t size) {
  AnyMessage msg;
  const DecodeStatus st = decode_frame(data, size, msg, cl.payloads());
  if (st != DecodeStatus::kOk) return st;
  std::visit(
      [&](const auto& m) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(m)>,
                                      std::monostate>) {
          deliver(cl, to, m);
        }
      },
      msg);
  return st;
}

template <class M>
void post(Cluster& cl, NodeId from, NodeId to, M msg) {
  const std::size_t size = frame_size(msg);
  cl.node(from).count_sent(type_tag<M>(), size);
  if (cl.wire_mode()) {
    if constexpr (requires { msg.updates; }) {
      record_payloads(cl, msg.tx, msg.updates);
    }
    cl.network().send_frame(from, to, encode_frame(msg));
    return;
  }
  // Closure transport: same routing table, same exact byte accounting. The
  // message is captured by value and passed by const reference, so a
  // network-duplicated delivery replays it intact.
  Cluster* c = &cl;
  cl.network().send(
      from, to, [c, to, msg = std::move(msg)]() { deliver(*c, to, msg); },
      size);
}

template void post<protocol::ReadRequest>(Cluster&, NodeId, NodeId,
                                          protocol::ReadRequest);
template void post<protocol::ReadReply>(Cluster&, NodeId, NodeId,
                                        protocol::ReadReply);
template void post<protocol::PrepareRequest>(Cluster&, NodeId, NodeId,
                                             protocol::PrepareRequest);
template void post<protocol::PrepareReply>(Cluster&, NodeId, NodeId,
                                           protocol::PrepareReply);
template void post<protocol::ReplicateRequest>(Cluster&, NodeId, NodeId,
                                               protocol::ReplicateRequest);
template void post<protocol::CommitMessage>(Cluster&, NodeId, NodeId,
                                            protocol::CommitMessage);
template void post<protocol::AbortMessage>(Cluster&, NodeId, NodeId,
                                           protocol::AbortMessage);
template void post<protocol::DecisionRequest>(Cluster&, NodeId, NodeId,
                                              protocol::DecisionRequest);
template void post<protocol::DecisionReply>(Cluster&, NodeId, NodeId,
                                            protocol::DecisionReply);
template void post<protocol::DecisionReplicate>(Cluster&, NodeId, NodeId,
                                                protocol::DecisionReplicate);
template void post<protocol::DecisionReplicateAck>(
    Cluster&, NodeId, NodeId, protocol::DecisionReplicateAck);

}  // namespace str::wire
