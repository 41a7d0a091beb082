// TombstoneTable against a reference std::unordered_map from TxId to
// stamp, where the first stamp wins and a sweep erases every entry stamped
// below the horizon.
#include "protocol/tombstone_table.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace str::protocol {
namespace {

constexpr Timestamp kHorizon = sec(4);
constexpr Timestamp kInterval = sec(2);

TEST(TombstoneTable, FirstStampWins) {
  TombstoneTable t(kHorizon + kInterval);
  const TxId tx{1, 7};
  t.insert(tx, 100);
  t.insert(tx, 200);  // duplicate: keeps 100
  EXPECT_EQ(t.size(), 1u);
  t.expire(150);
  EXPECT_FALSE(t.contains(tx));
  EXPECT_EQ(t.size(), 0u);
}

TEST(TombstoneTable, StampEqualToHorizonIsKept) {
  TombstoneTable t(kHorizon + kInterval);
  const TxId at{0, 1};
  const TxId below{0, 2};
  t.insert(at, 500);
  t.insert(below, 499);
  t.expire(500);
  EXPECT_TRUE(t.contains(at));
  EXPECT_FALSE(t.contains(below));
  EXPECT_EQ(t.base(), 500u);
  // The survivor's offset was re-based: it expires exactly past its stamp.
  t.expire(500 + 1);
  EXPECT_FALSE(t.contains(at));
}

TEST(TombstoneTable, HorizonsAtOrBelowTheBaseAreNoOps) {
  TombstoneTable t(kHorizon + kInterval);
  const TxId tx{2, 3};
  t.insert(tx, 0);
  t.expire(0);  // horizon 0: the base is already 0
  EXPECT_TRUE(t.contains(tx));
  EXPECT_EQ(t.base(), 0u);

  t.insert(TxId{2, 4}, 1000);
  t.expire(1000);
  EXPECT_EQ(t.base(), 1000u);
  EXPECT_FALSE(t.contains(tx));
  t.insert(TxId{2, 5}, 1000);  // stamp == base: offset 0
  t.expire(900);               // below the base: nothing moves
  t.expire(1000);              // at the base: nothing moves
  EXPECT_EQ(t.base(), 1000u);
  EXPECT_TRUE(t.contains(TxId{2, 4}));
  EXPECT_TRUE(t.contains(TxId{2, 5}));
  EXPECT_EQ(t.size(), 2u);
}

TEST(TombstoneTable, ClearAcrossGrowthReleasesAndRefills) {
  TombstoneTable t(kHorizon + kInterval);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) t.insert(TxId{3, seq}, seq);
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_GE(t.bytes(), 1000u * 12);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.bytes(), 0u);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    EXPECT_FALSE(t.contains(TxId{3, seq}));
  }
  t.expire(10);  // empty table: only the base moves
  EXPECT_EQ(t.base(), 10u);
  for (std::uint64_t seq = 1; seq <= 40; ++seq) t.insert(TxId{3, seq}, 10 + seq);
  EXPECT_EQ(t.size(), 40u);
  t.expire(31);
  EXPECT_EQ(t.size(), 20u);
  EXPECT_FALSE(t.contains(TxId{3, 20}));
  EXPECT_TRUE(t.contains(TxId{3, 21}));
}

TEST(TombstoneTable, CapacityFollowsTheLoadBeforeEachSweep) {
  TombstoneTable t(kHorizon + kInterval);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) t.insert(TxId{1, seq}, seq);
  const std::uint64_t full = t.bytes();
  t.expire(991);  // 10 survive, in an array sized for the 1000 held
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.bytes(), full);
  t.expire(992);  // sized for the 10 held: the initial 16 slots
  EXPECT_EQ(t.size(), 9u);
  EXPECT_EQ(t.bytes(), 16u * 12);
  for (std::uint64_t seq = 992; seq <= 1000; ++seq) {
    EXPECT_TRUE(t.contains(TxId{1, seq}));
  }
}

TEST(TombstoneTable, PackingLimits) {
  const TxId top{TombstoneTable::kMaxNode, TombstoneTable::kMaxSeq};
  EXPECT_EQ(TombstoneTable::pack(top), ~std::uint64_t{0});
  EXPECT_EQ(TombstoneTable::pack(TxId{0, 1}), 1u);
  EXPECT_EQ(TombstoneTable::pack(TxId{1, 0}), std::uint64_t{1} << 48);

  TombstoneTable t(TombstoneTable::kMaxOffset);
  const TxId node_only{TombstoneTable::kMaxNode, 1};
  const TxId seq_only{0, TombstoneTable::kMaxSeq};
  t.insert(top, TombstoneTable::kMaxOffset);  // the largest offset
  t.insert(node_only, 0);
  EXPECT_TRUE(t.contains(top));
  EXPECT_TRUE(t.contains(node_only));
  EXPECT_FALSE(t.contains(seq_only));
  t.insert(seq_only, 1);
  t.expire(TombstoneTable::kMaxOffset);
  EXPECT_TRUE(t.contains(top));
  EXPECT_FALSE(t.contains(node_only));
  EXPECT_FALSE(t.contains(seq_only));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TombstoneTable, MatchesReferenceMapUnderRandomInsertsAndSweeps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    TombstoneTable t(kHorizon + kInterval);
    std::unordered_map<TxId, Timestamp> ref;
    // Ids come from a small pool so duplicates are common; the pool's
    // corners are the packing limits.
    std::vector<TxId> pool;
    for (NodeId n = 0; n < 4; ++n) {
      for (std::uint64_t seq = 1; seq <= 300; ++seq) pool.push_back({n, seq});
    }
    pool.push_back({TombstoneTable::kMaxNode, TombstoneTable::kMaxSeq});
    pool.push_back({TombstoneTable::kMaxNode, 1});
    pool.push_back({0, TombstoneTable::kMaxSeq});

    // A replica's clock: stamps are "now", sweeps run every kInterval with
    // the horizon kHorizon behind, exactly as Node::maintain computes it.
    Timestamp now = rng.uniform(sec(1));
    Timestamp next_sweep = kInterval;
    for (int op = 0; op < 20000; ++op) {
      now += rng.uniform(msec(2));
      while (now >= next_sweep) {
        const Timestamp horizon =
            next_sweep > kHorizon ? next_sweep - kHorizon : 0;
        t.expire(horizon);
        std::erase_if(ref, [horizon](const auto& kv) {
          return kv.second < horizon;
        });
        next_sweep += kInterval;
      }
      // Every third sweep period is quiet, so rebuilds also shrink.
      const bool quiet = next_sweep / kInterval % 3 == 0;
      const std::uint64_t dice = rng.uniform(1000);
      if (quiet && dice >= 50) continue;
      if (dice < 2) {
        t.clear();
        ref.clear();
      } else if (dice < 6) {
        // A horizon at or below the last one changes nothing.
        const Timestamp stale = rng.uniform(t.base() + 1);
        t.expire(stale);
        std::erase_if(ref, [stale](const auto& kv) {
          return kv.second < stale;
        });
      } else {
        const TxId& tx = pool[rng.uniform(pool.size())];
        t.insert(tx, now);
        ref.try_emplace(tx, now);
      }
      ASSERT_EQ(t.size(), ref.size()) << "seed " << seed << " op " << op;
      if (op % 97 == 0) {
        for (const TxId& tx : pool) {
          ASSERT_EQ(t.contains(tx), ref.count(tx) == 1)
              << "seed " << seed << " op " << op << " tx " << tx.node << "#"
              << tx.seq;
        }
      }
    }
  }
}

}  // namespace
}  // namespace str::protocol
