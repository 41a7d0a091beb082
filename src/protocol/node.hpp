// A node: one machine in one data center.
//
// Hosts a transaction coordinator, one partition actor per partition the
// node replicates (master or slave), the cache partition for unsafe
// transactions' remote writes, and a loosely-synchronized physical clock
// (virtual time plus a fixed skew).
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "protocol/coordinator.hpp"
#include "protocol/partition_actor.hpp"
#include "storage/decision_log.hpp"
#include "storage/wal.hpp"
#include "store/cache_partition.hpp"
#include "wire/messages.hpp"

namespace str::protocol {

class Cluster;

class Node {
 public:
  Node(Cluster& cluster, NodeId id, RegionId region, Timestamp clock_skew);

  NodeId id() const { return id_; }
  RegionId region() const { return region_; }
  Timestamp clock_skew() const { return skew_; }

  /// Loosely synchronized physical clock: virtual time + skew. Monotonic.
  Timestamp physical_now() const;

  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }

  Coordinator& coordinator() { return coord_; }
  const Coordinator& coordinator() const { return coord_; }

  /// The replica of partition p hosted here, or nullptr.
  PartitionActor* replica(PartitionId p);

  /// All partition replicas hosted here (quiesce inspection).
  const std::unordered_map<PartitionId, std::unique_ptr<PartitionActor>>&
  replicas() const {
    return replicas_;
  }

  store::CachePartition& cache() { return cache_; }

  /// This node's metrics registry (counters/gauges/timers); merged
  /// cluster-wide by Cluster::merged_obs().
  obs::Registry& obs() { return obs_; }
  const obs::Registry& obs() const { return obs_; }

  /// The "wal.*" counters every log of this node shares (registered with
  /// the node, WAL on or off).
  const storage::Wal::Counters& wal_counters() const { return wal_counters_; }

  /// Count one message this node sends ("wire.msgs.<type>" and
  /// "wire.bytes.<type>"). Called by wire::post on every send, in the
  /// sender's shard.
  void count_sent(wire::MessageType type, std::size_t bytes) {
    const auto t = static_cast<std::size_t>(type);
    c_wire_msgs_[t]->inc();
    c_wire_bytes_[t]->inc(bytes);
  }

  /// Periodic GC on all replicas: committed versions are pruned up to
  /// `watermark`, the cluster-wide stable-snapshot watermark, and
  /// tombstones expire on their own age (PartitionActor::maintain).
  void maintain(Timestamp watermark);

  // -- crash / restart (fault injection) -----------------------------------

  bool up() const { return up_; }

  /// Fail-stop crash: abort every live transaction coordinated here (their
  /// durable abort decisions survive), then drop all volatile replica state
  /// (parked readers, tombstones, orphan timers). The MV store keeps
  /// committed data and prepared (pre-commit) versions — 2PC participants
  /// force-write their prepare record. The caller (Cluster) must mark the
  /// node down in the network first so crash-time fan-outs are dropped.
  void crash();

  /// Rejoin after a crash: prepared-but-undecided remote transactions found
  /// in the durable store re-enter orphan recovery. In WAL mode the stores
  /// are first rebuilt from the logs (decisions before partitions — commit
  /// records of locally-coordinated transactions validate against the
  /// replayed decision log).
  void restart();

  /// The node-level decision log (docs/DURABILITY.md); nullptr when the WAL
  /// is off. Partition logs live on their actors.
  storage::Wal* decision_wal() { return decision_wal_.get(); }

  /// The quorum wrapper around the decision log (docs/DURABILITY.md §8);
  /// nullptr unless the quorum commit point is on.
  storage::ReplicatedDecisionLog* decision_log() { return rlog_.get(); }

 private:
  Cluster& cluster_;
  NodeId id_;
  RegionId region_;
  Timestamp skew_;
  bool up_ = true;
  /// Declared before the partition actors and coordinator: both cache
  /// instrument references out of this registry during construction.
  obs::Registry obs_;
  storage::Wal::Counters wal_counters_;
  /// Per-message-type traffic counters, indexed by wire::MessageType (slot
  /// 0 is "wire.*.invalid", which no send reaches).
  std::array<obs::Counter*, wire::kNumMessageTypes> c_wire_msgs_{};
  std::array<obs::Counter*, wire::kNumMessageTypes> c_wire_bytes_{};
  std::unordered_map<PartitionId, std::unique_ptr<PartitionActor>> replicas_;
  store::CachePartition cache_;
  Coordinator coord_;
  /// Decision log (WAL mode): one per node, shared by no one. Created after
  /// coord_ and attached via set_decision_wal.
  std::unique_ptr<storage::Wal> decision_wal_;
  /// Quorum wrapper (quorum mode only): tracks member acks over
  /// decision_wal_ appends and retransmits to stragglers.
  std::unique_ptr<storage::ReplicatedDecisionLog> rlog_;

  /// Partition ids sorted ascending: crash/replay touch the logs in a
  /// deterministic order (replicas_ is an unordered_map, and torn-write
  /// resolution draws from a shared RNG stream).
  std::vector<PartitionId> sorted_pids_;
};

}  // namespace str::protocol
