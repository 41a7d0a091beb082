// The partition order of a grouped write set (protocol::group_writes).
//
// Every fan-out of a transaction — local certification, prepares and
// replicates, commit and abort messages — walks its partitions in the order
// group_writes leaves them, so that order is part of the trajectory. The
// trajectories of clusters of up to 13 partitions, the golden hash's among
// them, were recorded while the fan-outs iterated a default
// std::unordered_map<PartitionId, ...> filled in write order, so whenever
// every partition id is below 13 the lists must give exactly that map's
// order. On larger clusters the documented rule holds: newest first touch
// first.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "protocol/coordinator.hpp"
#include "protocol/partition_map.hpp"
#include "txn/txn_record.hpp"

namespace str::protocol {
namespace {

/// A write set of 1-12 distinct keys over the map's partitions.
std::vector<Key> random_keys(Rng& rng, const PartitionMap& pmap) {
  std::vector<Key> keys;
  const std::size_t n = 1 + rng.uniform(12);
  while (keys.size() < n) {
    const Key k = PartitionMap::make_key(
        static_cast<PartitionId>(rng.uniform(pmap.num_partitions())),
        rng.uniform(64));
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

txn::TxnRecord record_of(const std::vector<Key>& keys) {
  txn::TxnRecord rec;
  for (Key k : keys) {
    rec.writes.emplace_back(k, std::make_shared<const Value>("v"));
  }
  return rec;
}

template <class Parts>
std::vector<PartitionId> ids(const Parts& parts) {
  std::vector<PartitionId> out;
  for (const auto& part : parts) out.push_back(part.partition);
  return out;
}

/// The order the fan-outs followed before the grouped lists: iteration of
/// the maps the old grouping filled, one entry per first touch.
struct MapOrder {
  std::vector<PartitionId> local;
  std::vector<PartitionId> remote;
};

MapOrder map_order(const std::vector<Key>& keys, const PartitionMap& pmap,
                   NodeId origin) {
  std::unordered_map<PartitionId, std::shared_ptr<UpdateList>> local;
  std::unordered_map<PartitionId, std::shared_ptr<UpdateList>> remote;
  for (Key k : keys) {
    const PartitionId pid = PartitionMap::partition_of(k);
    auto& updates = pmap.replicates(origin, pid) ? local[pid] : remote[pid];
    if (!updates) updates = std::make_shared<UpdateList>();
  }
  MapOrder order;
  for (const auto& [pid, updates] : local) order.local.push_back(pid);
  for (const auto& [pid, updates] : remote) order.remote.push_back(pid);
  return order;
}

/// Newest first touch first, split by whether `origin` replicates the
/// partition.
MapOrder newest_first_touch(const std::vector<Key>& keys,
                            const PartitionMap& pmap, NodeId origin) {
  MapOrder order;
  for (Key k : keys) {
    const PartitionId pid = PartitionMap::partition_of(k);
    auto& list = pmap.replicates(origin, pid) ? order.local : order.remote;
    if (std::find(list.begin(), list.end(), pid) == list.end()) {
      list.push_back(pid);
    }
  }
  std::reverse(order.local.begin(), order.local.end());
  std::reverse(order.remote.begin(), order.remote.end());
  return order;
}

TEST(FanOutOrder, MatchesTheUnorderedMapItReplacedUpTo13Partitions) {
  Rng rng(2026);
  for (std::uint32_t partitions = 1; partitions <= 13; ++partitions) {
    for (int trial = 0; trial < 3000; ++trial) {
      const auto rf = static_cast<std::uint32_t>(1 + rng.uniform(partitions));
      const PartitionMap pmap(partitions, 1, rf);
      const auto origin = static_cast<NodeId>(rng.uniform(partitions));
      const std::vector<Key> keys = random_keys(rng, pmap);
      txn::TxnRecord rec = record_of(keys);
      group_writes(rec, pmap, origin, /*with_updates=*/true);
      const MapOrder expected = map_order(keys, pmap, origin);
      ASSERT_EQ(ids(rec.local_parts), expected.local)
          << partitions << " partitions, trial " << trial;
      ASSERT_EQ(ids(rec.remote_parts), expected.remote)
          << partitions << " partitions, trial " << trial;
    }
  }
}

TEST(FanOutOrder, NewestFirstTouchFirstBeyond13Partitions) {
  Rng rng(7);
  for (std::uint32_t partitions : {14u, 20u, 64u}) {
    for (int trial = 0; trial < 1000; ++trial) {
      const PartitionMap pmap(partitions, 1, 6);
      const auto origin = static_cast<NodeId>(rng.uniform(partitions));
      const std::vector<Key> keys = random_keys(rng, pmap);
      txn::TxnRecord rec = record_of(keys);
      group_writes(rec, pmap, origin, /*with_updates=*/true);
      const MapOrder expected = newest_first_touch(keys, pmap, origin);
      ASSERT_EQ(ids(rec.local_parts), expected.local);
      ASSERT_EQ(ids(rec.remote_parts), expected.remote);
    }
  }
}

TEST(FanOutOrder, UpdateListsKeepWriteOrderAndExactSize) {
  const PartitionMap pmap(9, 1, 6);
  const NodeId origin = 0;  // replicates partitions 0 and 4-8
  const std::vector<Key> keys = {
      PartitionMap::make_key(5, 1), PartitionMap::make_key(2, 1),
      PartitionMap::make_key(5, 2), PartitionMap::make_key(0, 1),
      PartitionMap::make_key(2, 2), PartitionMap::make_key(3, 1)};
  ASSERT_TRUE(pmap.replicates(origin, 5));
  ASSERT_FALSE(pmap.replicates(origin, 2));
  txn::TxnRecord rec = record_of(keys);
  group_writes(rec, pmap, origin, /*with_updates=*/true);

  EXPECT_EQ(ids(rec.local_parts), (std::vector<PartitionId>{0, 5}));
  EXPECT_EQ(ids(rec.remote_parts), (std::vector<PartitionId>{3, 2}));
  const UpdateList& p5 = *rec.local_parts[1].updates;
  ASSERT_EQ(p5.size(), 2u);
  EXPECT_EQ(p5.capacity(), 2u);
  EXPECT_EQ(p5[0].first, keys[0]);
  EXPECT_EQ(p5[1].first, keys[2]);
  // The lists hold the write buffer's handles, not copies.
  EXPECT_EQ(p5[0].second.get(), rec.writes[0].second.get());
  const UpdateList& p2 = *rec.remote_parts[1].updates;
  ASSERT_EQ(p2.size(), 2u);
  EXPECT_EQ(p2[1].first, keys[4]);
  // The cache list: every remote-partition write, in write order.
  ASSERT_EQ(rec.cache_writes.size(), 3u);
  EXPECT_EQ(rec.cache_writes[0].first, keys[1]);
  EXPECT_EQ(rec.cache_writes[1].first, keys[4]);
  EXPECT_EQ(rec.cache_writes[2].first, keys[5]);

  // Grouped for an abort only: the same partitions and counts, no lists.
  txn::TxnRecord ids_only = record_of(keys);
  group_writes(ids_only, pmap, origin, /*with_updates=*/false);
  EXPECT_EQ(ids(ids_only.local_parts), ids(rec.local_parts));
  EXPECT_EQ(ids(ids_only.remote_parts), ids(rec.remote_parts));
  EXPECT_EQ(ids_only.local_parts[1].count, 2u);
  EXPECT_EQ(ids_only.local_parts[1].updates, nullptr);
  EXPECT_TRUE(ids_only.cache_writes.empty());

  // A recycled record groups again from scratch.
  rec.reset();
  EXPECT_FALSE(rec.grouped());
}

}  // namespace
}  // namespace str::protocol
