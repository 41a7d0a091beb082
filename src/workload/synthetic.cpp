#include "workload/synthetic.hpp"

#include "common/assert.hpp"

#include <algorithm>


#include "protocol/partition_map.hpp"

namespace str::workload {

namespace {

using protocol::PartitionMap;

/// One synthetic transaction: RMW over a fixed key list (or read-only).
/// Every write of every attempt shares the program's one payload.
class SyntheticTxn final : public TxnProgram {
 public:
  SyntheticTxn(std::vector<Key> keys, SharedValue payload, bool read_only)
      : keys_(std::move(keys)), payload_(std::move(payload)),
        read_only_(read_only) {}

  int type() const override { return read_only_ ? 2 : 1; }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;  // anchors the program in this frame
    for (Key key : keys_) {
      txn::ReadResult r = co_await tx.read(key);
      if (r.aborted) co_return;
      if (!read_only_) tx.write(key, payload_);
    }
    tx.commit();
  }

 private:
  std::vector<Key> keys_;
  SharedValue payload_;
  bool read_only_;
};

}  // namespace

SyntheticWorkload::SyntheticWorkload(protocol::Cluster& cluster,
                                     SyntheticConfig config)
    : cluster_(cluster), config_(config) {
  const auto& pmap = cluster.pmap();
  near_remote_partitions_.resize(cluster.num_nodes());
  far_remote_partitions_.resize(cluster.num_nodes());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (PartitionId p = 0; p < pmap.num_partitions(); ++p) {
      if (pmap.is_master(n, p)) continue;
      if (pmap.replicates(n, p)) {
        near_remote_partitions_[n].push_back(p);
      } else {
        far_remote_partitions_[n].push_back(p);
      }
    }
  }
}

void SyntheticWorkload::load(protocol::Cluster& cluster) {
  // Load only the contended regions eagerly; the huge uniform tail is
  // treated as implicitly-present empty values (reads of unloaded keys
  // return not-found, writes create them), which keeps memory proportional
  // to what the benchmark actually touches.
  const Value payload(config_.value_size, 'i');
  for (PartitionId p = 0; p < cluster.pmap().num_partitions(); ++p) {
    for (std::uint64_t r = 0; r < config_.local_hotspot; ++r) {
      cluster.load(PartitionMap::make_key(p, r), payload);
    }
    for (std::uint64_t r = 0; r < config_.remote_hotspot; ++r) {
      cluster.load(PartitionMap::make_key(p, config_.keys_per_half + r),
                   payload);
    }
  }
}

Key SyntheticWorkload::pick_key(NodeId node, Rng& rng) const {
  const bool remote = (!near_remote_partitions_[node].empty() ||
                       !far_remote_partitions_[node].empty()) &&
                      rng.chance(config_.remote_access_prob);
  PartitionId pid;
  std::uint64_t base;
  std::uint64_t hotspot;
  if (remote) {
    const auto& near = near_remote_partitions_[node];
    const auto& far = far_remote_partitions_[node];
    const bool go_far =
        !far.empty() && (near.empty() || rng.chance(config_.far_access_frac));
    const auto& choices = go_far ? far : near;
    pid = choices[rng.uniform(choices.size())];
    base = config_.keys_per_half;  // remote-only half
    hotspot = config_.remote_hotspot;
  } else {
    // The partition this node masters. With partitions_per_node == 1 this is
    // partition `node`; generalize via mastered partitions.
    pid = static_cast<PartitionId>(node);
    base = 0;  // local-only half
    hotspot = config_.local_hotspot;
  }
  std::uint64_t row;
  if (rng.chance(config_.hotspot_prob)) {
    row = rng.uniform(hotspot);
  } else {
    row = hotspot + rng.uniform(config_.keys_per_half - hotspot);
  }
  return PartitionMap::make_key(pid, base + row);
}

std::shared_ptr<TxnProgram> SyntheticWorkload::next(NodeId node, Rng& rng) {
  std::vector<Key> keys;
  keys.reserve(config_.keys_per_txn);
  for (std::uint32_t i = 0; i < config_.keys_per_txn; ++i) {
    // Avoid duplicate keys within one transaction (a second RMW of the same
    // key is absorbed by the write buffer anyway).
    for (int attempts = 0; attempts < 8; ++attempts) {
      const Key k = pick_key(node, rng);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
        break;
      }
    }
  }
  const bool read_only = config_.read_only_fraction > 0.0 &&
                         rng.chance(config_.read_only_fraction);
  // One payload per program, shared by every write and retry of it. Not one
  // per run: each transaction of a real workload writes values of its own,
  // and a run-wide payload would take the stored values out of the memory
  // a run measures.
  SharedValue payload =
      read_only ? nullptr
                : std::make_shared<const Value>(config_.value_size, 'w');
  return std::make_shared<SyntheticTxn>(std::move(keys), std::move(payload),
                                        read_only);
}

}  // namespace str::workload
