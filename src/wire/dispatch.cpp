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
  cl.tracer().record_span(m.tspan, m.tx, to, obs::SpanKind::Handle, cl.now(),
                          cl.now(), static_cast<std::uint64_t>(type_tag<M>()),
                          m.partition);
}

/// Record a prepare's or replicate's update list in the cluster's table:
/// the receivers' decode hands it back (wire/payload_table.hpp).
template <class M>
void record_payloads(Cluster& cl, const M& msg) {
  if constexpr (requires { msg.updates; }) {
    if (msg.updates != nullptr) {
      cl.payloads().record(msg.tx, msg.partition, msg.updates);
    }
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
  cl.node(to).coordinator().on_decision_replicate_ack(m);
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
void post_fanout(Cluster& cl, NodeId from, std::span<const NodeId> to,
                 const M& msg) {
  if (!cl.wire_mode()) {
    for (NodeId n : to) post(cl, from, n, msg);
    return;
  }
  if (to.empty()) return;
  // One encode and one checksum for every leg; each leg is then sent as
  // post sends one, in order, with its own accounting, fault draws and
  // delivery.
  record_payloads(cl, msg);
  Frame frame = seal_frame(msg);
  const std::size_t size = frame.size();
  for (std::size_t i = 0; i < to.size(); ++i) {
    cl.node(from).count_sent(type_tag<M>(), size);
    // The last leg takes the sender's reference.
    cl.network().send_frame(from, to[i],
                            i + 1 < to.size() ? frame : std::move(frame));
  }
}

template <class M>
void post(Cluster& cl, NodeId from, NodeId to, M msg) {
  if (cl.wire_mode()) {
    post_fanout(cl, from, std::span<const NodeId>(&to, 1), msg);
    return;
  }
  // Closure transport: same routing table, same exact byte accounting. The
  // message is captured by value and passed by const reference, so a
  // network-duplicated delivery replays it intact.
  const std::size_t size = frame_size(msg);
  cl.node(from).count_sent(type_tag<M>(), size);
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

template void post_fanout<protocol::ReplicateRequest>(
    Cluster&, NodeId, std::span<const NodeId>,
    const protocol::ReplicateRequest&);
template void post_fanout<protocol::CommitMessage>(
    Cluster&, NodeId, std::span<const NodeId>, const protocol::CommitMessage&);
template void post_fanout<protocol::DecisionReplicate>(
    Cluster&, NodeId, std::span<const NodeId>,
    const protocol::DecisionReplicate&);

}  // namespace str::wire
