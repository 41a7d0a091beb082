// Typed RPC dispatch over the wire codec (docs/WIRE.md).
//
// Two entry points:
//
//  * `post(cluster, from, to, msg)` — the one way the protocol layer sends
//    a message, and `post_fanout(cluster, from, nodes, msg)`, the same
//    message to several nodes in a row. In wire mode
//    (`Cluster::Config::wire_codec`) the message is sealed into one
//    checksummed wire::Frame and shipped as bytes through
//    `Network::send_frame`, every leg of a fan-out sharing it, then
//    decoded and routed at the destination; prepare and replicate sends
//    first record their update list in the cluster's PayloadTable, which
//    the receivers' decode hands back. In the default closure mode each
//    leg travels as a closure whose byte accounting uses the exact frame
//    size — so both modes report identical traffic and stay on the same
//    RNG draw sequence.
//
//  * `dispatch_frame(cluster, to, data, size)` — decode one received frame
//    through the cluster's PayloadTable and route it to the owning handler
//    on node `to` (the routing table is the `deliver` overload set below).
//    Installed as the Network's FrameHandler by the Cluster when wire mode
//    is on.
//
// Correlation is carried in the messages themselves (ReadRequest::req_id,
// TxId + partition for votes and decisions), not in captured continuations,
// which is what makes the serialized path possible at all.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "protocol/messages.hpp"
#include "wire/messages.hpp"

namespace str::protocol {
class Cluster;
}

namespace str::wire {

// -- routing table ------------------------------------------------------------
// One overload per message type: route a decoded message to its handler on
// node `to`. Used by both transports (closure payloads call these directly;
// wire frames go through dispatch_frame).

void deliver(protocol::Cluster& cl, NodeId to, const protocol::ReadRequest& m);
void deliver(protocol::Cluster& cl, NodeId to, const protocol::ReadReply& m);
void deliver(protocol::Cluster& cl, NodeId to,
             const protocol::PrepareRequest& m);
void deliver(protocol::Cluster& cl, NodeId to, const protocol::PrepareReply& m);
void deliver(protocol::Cluster& cl, NodeId to,
             const protocol::ReplicateRequest& m);
void deliver(protocol::Cluster& cl, NodeId to, const protocol::CommitMessage& m);
void deliver(protocol::Cluster& cl, NodeId to, const protocol::AbortMessage& m);
void deliver(protocol::Cluster& cl, NodeId to,
             const protocol::DecisionRequest& m);
void deliver(protocol::Cluster& cl, NodeId to, const protocol::DecisionReply& m);
void deliver(protocol::Cluster& cl, NodeId to,
             const protocol::DecisionReplicate& m);
void deliver(protocol::Cluster& cl, NodeId to,
             const protocol::DecisionReplicateAck& m);

/// Decode one received frame and route it. Returns kOk when the message was
/// delivered; any other status means the frame was rejected (and the caller
/// should count it).
DecodeStatus dispatch_frame(protocol::Cluster& cl, NodeId to,
                            const std::uint8_t* data, std::size_t size);

/// Send `msg` from `from` to `to` through the cluster's transport mode.
/// Explicitly instantiated in dispatch.cpp for every message type.
template <class M>
void post(protocol::Cluster& cl, NodeId from, NodeId to, M msg);

/// Send `msg` from `from` to every node of `to`, in order: the legs of one
/// fan-out. Each leg is what post() would send — its own traffic count,
/// fault draws and delivery, in the same order — but in wire mode every leg
/// carries one shared frame, encoded and checksummed once. Instantiated in
/// dispatch.cpp for the messages the protocol fans out: replicates,
/// commits and decision replicates.
template <class M>
void post_fanout(protocol::Cluster& cl, NodeId from,
                 std::span<const NodeId> to, const M& msg);

extern template void post<protocol::ReadRequest>(protocol::Cluster&, NodeId,
                                                 NodeId, protocol::ReadRequest);
extern template void post<protocol::ReadReply>(protocol::Cluster&, NodeId,
                                               NodeId, protocol::ReadReply);
extern template void post<protocol::PrepareRequest>(protocol::Cluster&, NodeId,
                                                    NodeId,
                                                    protocol::PrepareRequest);
extern template void post<protocol::PrepareReply>(protocol::Cluster&, NodeId,
                                                  NodeId,
                                                  protocol::PrepareReply);
extern template void post<protocol::ReplicateRequest>(
    protocol::Cluster&, NodeId, NodeId, protocol::ReplicateRequest);
extern template void post<protocol::CommitMessage>(protocol::Cluster&, NodeId,
                                                   NodeId,
                                                   protocol::CommitMessage);
extern template void post<protocol::AbortMessage>(protocol::Cluster&, NodeId,
                                                  NodeId,
                                                  protocol::AbortMessage);
extern template void post<protocol::DecisionRequest>(protocol::Cluster&, NodeId,
                                                     NodeId,
                                                     protocol::DecisionRequest);
extern template void post<protocol::DecisionReply>(protocol::Cluster&, NodeId,
                                                   NodeId,
                                                   protocol::DecisionReply);
extern template void post<protocol::DecisionReplicate>(
    protocol::Cluster&, NodeId, NodeId, protocol::DecisionReplicate);
extern template void post<protocol::DecisionReplicateAck>(
    protocol::Cluster&, NodeId, NodeId, protocol::DecisionReplicateAck);

extern template void post_fanout<protocol::ReplicateRequest>(
    protocol::Cluster&, NodeId, std::span<const NodeId>,
    const protocol::ReplicateRequest&);
extern template void post_fanout<protocol::CommitMessage>(
    protocol::Cluster&, NodeId, std::span<const NodeId>,
    const protocol::CommitMessage&);
extern template void post_fanout<protocol::DecisionReplicate>(
    protocol::Cluster&, NodeId, std::span<const NodeId>,
    const protocol::DecisionReplicate&);

}  // namespace str::wire
