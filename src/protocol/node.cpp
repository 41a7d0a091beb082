#include "protocol/node.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"
#include "protocol/cluster.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

Node::Node(Cluster& cluster, NodeId id, RegionId region, Timestamp clock_skew)
    : cluster_(cluster), id_(id), region_(region), skew_(clock_skew),
      wal_counters_(storage::Wal::register_counters(obs_)),
      coord_(*this) {
  for (std::size_t t = 0; t < wire::kNumMessageTypes; ++t) {
    const char* type =
        t < wire::kMinMessageType
            ? "invalid"
            : wire::to_string(static_cast<wire::MessageType>(t));
    c_wire_msgs_[t] = &obs_.counter(std::string("wire.msgs.") + type);
    c_wire_bytes_[t] = &obs_.counter(std::string("wire.bytes.") + type);
  }
  for (PartitionId p : cluster.pmap().partitions_at(id)) {
    replicas_.emplace(p, std::make_unique<PartitionActor>(
                             *this, p, cluster.pmap().is_master(id, p)));
    sorted_pids_.push_back(p);
  }
  std::sort(sorted_pids_.begin(), sorted_pids_.end());
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict inside
  // `"literal" + std::string` concatenation.
  std::string name = "n";
  name.append(std::to_string(id)).append("_decisions.wal");
  decision_wal_ = cluster.make_wal(name, id, wal_counters_);
  coord_.set_decision_wal(decision_wal_.get());
  if (decision_wal_ != nullptr && cluster.decision_quorum_enabled()) {
    // Quorum commit point (docs/DURABILITY.md §8): wrap the decision log
    // with ack tracking over this node's static replica group. The send
    // hook posts DecisionReplicate frames through wire::post, so the
    // fan-out gets checksums, traffic counters, and fault injection
    // exactly like every other message.
    storage::ReplicatedDecisionLog::Options opts;
    opts.quorum = cluster.config().protocol.durability.decision_quorum;
    for (NodeId m : cluster.decision_group(id)) {
      if (m != id) opts.members.push_back(m);
    }
    rlog_ = std::make_unique<storage::ReplicatedDecisionLog>(
        cluster.sharded().shard(cluster.shard_of(id)), *decision_wal_,
        std::move(opts),
        [this](const TxId& tx, Timestamp commit_ts, Timestamp decided_at,
               const std::vector<NodeId>& to) {
          for (NodeId target : to) {
            DecisionReplicate m;
            m.tx = tx;
            m.origin = id_;
            m.commit_ts = commit_ts;
            m.decided_at = decided_at;
            wire::post(cluster_, id_, target, std::move(m));
          }
        });
    coord_.set_decision_log(rlog_.get());
  }
}

Timestamp Node::physical_now() const {
  return cluster_.scheduler().now() + skew_;
}

PartitionActor* Node::replica(PartitionId p) {
  auto it = replicas_.find(p);
  return it == replicas_.end() ? nullptr : it->second.get();
}

void Node::maintain(Timestamp watermark) {
  const Timestamp horizon_len = cluster_.protocol().gc_horizon;
  const Timestamp now = physical_now();
  const Timestamp horizon = now > horizon_len ? now - horizon_len : 0;
  // The watermark can only extend the time horizon forward, never retract
  // it: with pruning disabled (or a lagging watermark) behaviour degrades
  // to pure age-based GC, which is the reference the golden-determinism
  // suite pins both modes against.
  const Timestamp prune =
      cluster_.protocol().watermark_pruning && watermark > horizon
          ? watermark
          : horizon;
  for (auto& [pid, actor] : replicas_) actor->maintain(prune, horizon);
  coord_.maintain(now);
}

void Node::crash() {
  up_ = false;
  // WAL mode: resolve the media FIRST, in deterministic order (partition
  // logs by ascending pid, then the decision log). Each crash() discards
  // the log's unsynced tail — possibly leaving a torn record when a sync
  // was in flight — so by the time the coordinator asks which decisions
  // are durable, durable_prefix() is the final, immutable answer.
  if (decision_wal_ != nullptr) {
    for (PartitionId pid : sorted_pids_) replicas_[pid]->wal()->crash();
    decision_wal_->crash();
  }
  // Coordinator next: aborting its live transactions cleans their versions
  // out of the local replicas and the cache before the actors drop their
  // volatile bookkeeping.
  coord_.on_crash();
  for (auto& [pid, actor] : replicas_) actor->on_crash();
}

void Node::restart() {
  up_ = true;
  if (decision_wal_ != nullptr) {
    // Decisions before partitions: a partition replaying a commit record of
    // a locally-coordinated transaction asks the coordinator whether its
    // decision survived (presumed abort otherwise).
    coord_.replay_decisions();
    for (PartitionId pid : sorted_pids_) replicas_[pid]->replay_wal();
    STR_INFO("node %u replayed %zu partition logs", static_cast<unsigned>(id_),
             sorted_pids_.size());
  }
  for (auto& [pid, actor] : replicas_) actor->on_restart();
}

}  // namespace str::protocol
