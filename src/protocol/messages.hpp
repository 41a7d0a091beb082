// Message payloads exchanged between nodes.
//
// Every inter-node interaction is expressed through one of these structs.
// Their binary encoding — frame layout, type tags, exact sizes — lives in
// the wire subsystem (wire/messages.hpp, docs/WIRE.md); the structs here
// stay codec-agnostic so the protocol layer reads like its wire format
// without depending on it. Sends go through wire::post, which charges the
// exact encoded frame size to the traffic counters in both transport modes.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace str::protocol {

// A partition's update list and its shared handle (common/types.hpp).
using str::SharedUpdates;
using str::UpdateList;

struct ReadRequest {
  TxId reader;
  NodeId reader_node = kInvalidNode;
  std::uint64_t req_id = 0;  ///< pairs the reply with the reader's promise
  Key key = 0;
  Timestamp rs = 0;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

struct ReadReply {
  TxId reader;
  std::uint64_t req_id = 0;
  Key key = 0;
  bool found = false;
  SharedValue value;
  TxId writer;
  Timestamp version_ts = 0;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

struct PrepareRequest {
  TxId tx;
  NodeId coordinator = kInvalidNode;
  PartitionId partition = kInvalidPartition;
  Timestamp rs = 0;
  SharedUpdates updates;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

struct PrepareReply {
  TxId tx;
  PartitionId partition = kInvalidPartition;
  NodeId from = kInvalidNode;
  bool prepared = false;
  Timestamp proposed_ts = 0;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

/// Master -> slave synchronous replication of an accepted pre-commit.
struct ReplicateRequest {
  TxId tx;
  NodeId coordinator = kInvalidNode;
  PartitionId partition = kInvalidPartition;
  Timestamp rs = 0;
  SharedUpdates updates;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

struct CommitMessage {
  TxId tx;
  PartitionId partition = kInvalidPartition;
  Timestamp commit_ts = 0;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

struct AbortMessage {
  TxId tx;
  PartitionId partition = kInvalidPartition;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

/// What a node knows about a transaction's fate. `Unknown` means "no record
/// here": from the coordinator, the transaction is still deciding; from a
/// member of a dead coordinator's replica group, the member holds no copy.
/// Under presumed abort, a participant acts on Unknown only once every copy
/// that could exist has answered it for enough rounds (docs/FAULTS.md).
enum class TxDecision : std::uint8_t {
  Unknown,
  Committed,
  Aborted,
};

/// Participant -> coordinator, or -> a member of a dead coordinator's
/// replica group: "transaction `tx` has been prepared here for a while and
/// no decision arrived — what happened to it?" Sent by the orphan-recovery
/// timer (docs/FAULTS.md).
struct DecisionRequest {
  TxId tx;
  PartitionId partition = kInvalidPartition;
  NodeId from = kInvalidNode;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

/// Every node's one answer to a DecisionRequest, built by one rule
/// (Coordinator::on_decision_request).
struct DecisionReply {
  TxId tx;
  PartitionId partition = kInvalidPartition;
  TxDecision decision = TxDecision::Unknown;
  Timestamp commit_ts = 0;
  NodeId from = kInvalidNode;  ///< the answering node
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

/// Coordinator -> replica-group member: replicate one durable commit
/// decision (the kDecision record's fields, re-framed for the wire). The
/// member appends the decision to its own decision log and acks once that
/// append is durable — the quorum commit point (docs/DURABILITY.md §8).
struct DecisionReplicate {
  TxId tx;
  NodeId origin = kInvalidNode;  ///< the deciding coordinator
  Timestamp commit_ts = 0;
  Timestamp decided_at = 0;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

/// Member -> coordinator: its copy of the DecisionReplicate is durable.
struct DecisionReplicateAck {
  TxId tx;
  NodeId from = kInvalidNode;
  std::uint64_t tspan = 0;  ///< trace-context: sender span id (0 = untraced)
};

}  // namespace str::protocol
