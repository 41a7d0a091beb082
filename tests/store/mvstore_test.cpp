#include "store/mvstore.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "common/rng.hpp"

namespace str::store {
namespace {

const TxId kTx1{0, 1};
const TxId kTx2{0, 2};
const TxId kTx3{1, 1};

std::vector<std::pair<Key, SharedValue>> upd(Key k, Value v) {
  return {{k, std::make_shared<Value>(std::move(v))}};
}

TEST(MvStore, LoadThenRead) {
  PartitionStore s;
  s.load(1, "a");
  auto r = s.read(1, 100);
  EXPECT_EQ(r.kind, ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "a");
  EXPECT_EQ(r.writer, kNoTx);
  EXPECT_EQ(r.ts, 0u);
}

TEST(MvStore, MissingKeyNotFound) {
  PartitionStore s;
  auto r = s.read(99, 100);
  EXPECT_EQ(r.kind, ReadKind::NotFound);
}

TEST(MvStore, ReadBumpsLastReader) {
  PartitionStore s;
  s.load(1, "a");
  s.read(1, 500);
  EXPECT_EQ(s.last_reader(1), 500u);
  s.read(1, 300);  // older snapshot does not lower it
  EXPECT_EQ(s.last_reader(1), 500u);
}

TEST(MvStore, MissingKeyReadStillTracksReader) {
  PartitionStore s;
  s.read(7, 123);
  EXPECT_EQ(s.last_reader(7), 123u);
}

TEST(MvStore, PeekDoesNotBumpLastReader) {
  PartitionStore s;
  s.load(1, "a");
  s.peek(1, 900);
  EXPECT_EQ(s.last_reader(1), 0u);
}

TEST(MvStore, PrepareInsertsPreCommitted) {
  PartitionStore s;
  s.load(1, "a");
  auto pr = s.prepare(kTx1, 100, upd(1, "b"), /*precise=*/true, 0);
  ASSERT_TRUE(pr.ok);
  auto r = s.read(1, pr.proposed_ts);
  EXPECT_EQ(r.kind, ReadKind::Blocked);
  EXPECT_EQ(r.writer, kTx1);
}

TEST(MvStore, PreciseProposalUsesLastReaderPlusOne) {
  PartitionStore s;
  s.load(1, "a");
  s.read(1, 400);
  auto pr = s.prepare(kTx1, 500, upd(1, "b"), /*precise=*/true, 0);
  ASSERT_TRUE(pr.ok);
  EXPECT_EQ(pr.proposed_ts, 401u);
}

TEST(MvStore, PhysicalProposalUsesClock) {
  PartitionStore s;
  s.load(1, "a");
  auto pr = s.prepare(kTx1, 100, upd(1, "b"), /*precise=*/false, 7777);
  ASSERT_TRUE(pr.ok);
  EXPECT_EQ(pr.proposed_ts, 7777u);
}

TEST(MvStore, ProposalClampedAboveExistingVersions) {
  PartitionStore s;
  s.load(1, "a");
  auto pr1 = s.prepare(kTx1, 100, upd(1, "b"), /*precise=*/false, 1000);
  ASSERT_TRUE(pr1.ok);
  s.final_commit(kTx1, 1000);
  // Blind write with a physical clock behind the committed version.
  auto pr2 = s.prepare(kTx2, 2000, upd(1, "c"), /*precise=*/false, 500);
  ASSERT_TRUE(pr2.ok);
  EXPECT_GT(pr2.proposed_ts, 1000u);
}

TEST(MvStore, ConflictOnUncommittedVersion) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  auto pr = s.prepare(kTx2, 200, upd(1, "c"), true, 0);
  EXPECT_FALSE(pr.ok);
  EXPECT_EQ(pr.conflicting_writer, kTx1);
}

TEST(MvStore, ConflictOnCommittedNewerThanSnapshot) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.final_commit(kTx1, 150);
  // kTx2's snapshot (120) is older than the committed version (150).
  auto pr = s.prepare(kTx2, 120, upd(1, "c"), true, 0);
  EXPECT_FALSE(pr.ok);
  EXPECT_EQ(pr.conflicting_writer, kNoTx);
}

TEST(MvStore, NoConflictOnCommittedOlderThanSnapshot) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.final_commit(kTx1, 150);
  auto pr = s.prepare(kTx2, 200, upd(1, "c"), true, 0);
  EXPECT_TRUE(pr.ok);
}

TEST(MvStore, ChainAllowedPermitsDependencyOverwrite) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 101);
  FlatSet<TxId> deps{kTx1};
  // Without the chain, conflict:
  EXPECT_FALSE(s.prepare(kTx2, 200, upd(1, "c"), true, 0).ok);
  // With kTx1 in the dependency set, tx2 may pre-commit on top.
  auto pr = s.prepare(kTx2, 200, upd(1, "c"), true, 0, &deps);
  ASSERT_TRUE(pr.ok);
  EXPECT_GT(pr.proposed_ts, 101u);
}

TEST(MvStore, ChainNotAllowedForPreCommitted) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  FlatSet<TxId> deps{kTx1};
  // Still pre-committed (not local-committed): no chaining.
  EXPECT_FALSE(s.prepare(kTx2, 200, upd(1, "c"), true, 0, &deps).ok);
}

TEST(MvStore, ChainNotAllowedBeyondSnapshot) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 300, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 301);
  FlatSet<TxId> deps{kTx1};
  // kTx2's snapshot (200) is below the local-commit timestamp (301).
  EXPECT_FALSE(s.prepare(kTx2, 200, upd(1, "c"), true, 0, &deps).ok);
}

TEST(MvStore, LocalCommitMakesSpeculative) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  auto r = s.read(1, 200);
  EXPECT_EQ(r.kind, ReadKind::Speculative);
  EXPECT_EQ(r.value_str(), "b");
  EXPECT_EQ(r.ts, 120u);
}

TEST(MvStore, FinalCommitMakesCommittedWithNewTimestamp) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  s.final_commit(kTx1, 180);
  auto r = s.read(1, 200);
  EXPECT_EQ(r.kind, ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "b");
  EXPECT_EQ(r.ts, 180u);
  // Snapshot below the commit timestamp sees the old version.
  auto old = s.read(1, 150);
  EXPECT_EQ(old.kind, ReadKind::Committed);
  EXPECT_EQ(old.value_str(), "a");
}

TEST(MvStore, AbortRemovesVersions) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  s.abort_tx(kTx1);
  auto r = s.read(1, 200);
  EXPECT_EQ(r.kind, ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "a");
  EXPECT_FALSE(s.has_uncommitted(kTx1));
}

TEST(MvStore, SnapshotReadPicksLatestAtOrBelow) {
  PartitionStore s;
  s.load(1, "v0");
  for (std::uint64_t i = 1; i <= 5; ++i) {
    TxId tx{0, i};
    ASSERT_TRUE(s.prepare(tx, i * 100, upd(1, "v" + std::to_string(i)), true, 0).ok);
    s.final_commit(tx, i * 100);
  }
  EXPECT_EQ(s.read(1, 250).value_str(), "v2");
  EXPECT_EQ(s.read(1, 300).value_str(), "v3");
  EXPECT_EQ(s.read(1, 99).value_str(), "v0");
  EXPECT_EQ(s.read(1, 10000).value_str(), "v5");
}

TEST(MvStore, ReplicateEvictsLocalCommitted) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  auto rr = s.replicate_insert(kTx3, upd(1, "c"), true, 0);
  ASSERT_EQ(rr.evicted.size(), 1u);
  EXPECT_EQ(rr.evicted[0], kTx1);
  s.abort_tx(kTx1);  // caller responsibility
  const Timestamp ts = s.replicate_finish(kTx3, upd(1, "c"), rr.proposed_ts);
  auto r = s.read(1, ts + 10);
  EXPECT_EQ(r.kind, ReadKind::Blocked);
  EXPECT_EQ(r.writer, kTx3);
}

TEST(MvStore, ReplicateDoesNotEvictPreCommitted) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);  // pre-committed
  auto rr = s.replicate_insert(kTx3, upd(1, "c"), true, 0);
  EXPECT_TRUE(rr.evicted.empty());
}

TEST(MvStore, UncommittedWritersProbe) {
  PartitionStore s;
  s.load(1, "a");
  s.load(2, "b");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "x"), true, 0).ok);
  ASSERT_TRUE(s.prepare(kTx2, 100, upd(2, "y"), true, 0).ok);
  auto writers = s.uncommitted_writers({1, 2});
  EXPECT_EQ(writers.size(), 2u);
}

TEST(MvStore, GcKeepsNewestReachable) {
  PartitionStore s;
  s.load(1, "v0");
  for (std::uint64_t i = 1; i <= 10; ++i) {
    TxId tx{0, i};
    ASSERT_TRUE(s.prepare(tx, i * 100, upd(1, "v" + std::to_string(i)), true, 0).ok);
    s.final_commit(tx, i * 100);
  }
  s.gc(/*horizon=*/550);
  // Versions at 500 and above survive; reads at the horizon still work.
  EXPECT_EQ(s.read(1, 560).value_str(), "v5");
  EXPECT_EQ(s.read(1, 1000).value_str(), "v10");
  EXPECT_GT(s.stats().gc_removed, 0u);
}

TEST(MvStore, GcDoesNotTouchUncommitted) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  TxId tx{0, 9};
  ASSERT_TRUE((s.prepare(tx, 200, upd(1, "c"), true, 0, nullptr),
               true));  // conflicts; ignore
  s.gc(10000);
  EXPECT_TRUE(s.has_uncommitted(kTx1));
}

TEST(MvStore, StorageBytesIncludesLastReaderWhenAsked) {
  PartitionStore s;
  s.load(1, std::string(100, 'x'));
  const auto without = s.storage_bytes(false);
  const auto with = s.storage_bytes(true);
  EXPECT_EQ(with - without, sizeof(Timestamp));
  EXPECT_GT(without, 100u);
}

TEST(MvStore, StatsCountVersions) {
  PartitionStore s;
  s.load(1, "a");
  s.load(2, "bb");
  ASSERT_TRUE(s.prepare(kTx1, 10, upd(1, "c"), true, 0).ok);
  auto st = s.stats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.versions, 3u);
  EXPECT_EQ(st.value_bytes, 4u);
}


TEST(MvStore, CommittedAboveUncommittedStillBlocks) {
  // A pre-committed version's proposal may sit below a committed version's
  // final timestamp; the read must block on it because its eventual commit
  // timestamp may land inside the snapshot (stale-read hazard).
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);  // proposal ~1
  // A second writer chained above commits first, with a larger timestamp.
  FlatSet<TxId> deps{kTx1};
  s.local_commit(kTx1, 101);
  ASSERT_TRUE(s.prepare(kTx2, 200, upd(1, "c"), true, 0, &deps).ok);
  s.local_commit(kTx2, 150);
  s.final_commit(kTx2, 180);
  // Chain now: committed kTx2@180 above local-committed kTx1@101.
  auto r = s.read(1, 500);
  EXPECT_EQ(r.kind, ReadKind::Blocked);
  EXPECT_EQ(r.writer, kTx1);
  // Once the lower writer resolves, the committed version is readable.
  s.final_commit(kTx1, 120);
  auto r2 = s.read(1, 500);
  EXPECT_EQ(r2.kind, ReadKind::Committed);
  EXPECT_EQ(r2.value_str(), "c");
}

TEST(MvStore, UncommittedAboveSnapshotDoesNotBlockCommittedRead) {
  PartitionStore s;
  s.load(1, "a");
  ASSERT_TRUE(s.prepare(kTx1, 100, upd(1, "b"), true, 0).ok);
  s.local_commit(kTx1, 120);
  s.final_commit(kTx1, 150);
  // A prior reader at 300 pushes kTx2's proposal above it (precise clocks),
  // so its pre-commit sits above our snapshot of 200.
  s.read(1, 300);
  ASSERT_TRUE(s.prepare(kTx2, 400, upd(1, "c"), true, 0).ok);
  auto r = s.read(1, 200);
  EXPECT_EQ(r.kind, ReadKind::Committed);
  EXPECT_EQ(r.value_str(), "b");
}


TEST(MvStore, UncommittedCounterSurvivesGcAndCycles) {
  // The O(1)-read fast path relies on the per-key uncommitted counter; it
  // must stay exact across prepare/local-commit/final-commit/abort/GC.
  PartitionStore s;
  s.load(1, "v0");
  for (std::uint64_t i = 1; i <= 20; ++i) {
    TxId tx{0, i};
    ASSERT_TRUE(s.prepare(tx, i * 100, upd(1, "v" + std::to_string(i)), true, 0).ok);
    if (i % 3 == 0) {
      s.abort_tx(tx);
    } else {
      s.local_commit(tx, i * 100 + 1);
      s.final_commit(tx, i * 100 + 2);
    }
    s.gc(i * 100);
  }
  // No uncommitted versions remain: a read at any snapshot is never Blocked.
  for (Timestamp rs : {Timestamp(150), Timestamp(1050), Timestamp(5000)}) {
    auto r = s.read(1, rs);
    EXPECT_NE(r.kind, ReadKind::Blocked) << "rs=" << rs;
  }
  // And a fresh prepare + read-below-committed still blocks correctly.
  TxId tx{0, 99};
  s.read(1, 5000);
  ASSERT_TRUE(s.prepare(tx, 6000, upd(1, "x"), true, 0).ok);
  auto r = s.read(1, 10000);
  EXPECT_EQ(r.kind, ReadKind::Blocked);
  s.abort_tx(tx);
  EXPECT_EQ(s.read(1, 10000).kind, ReadKind::Committed);
}

// -- Key table: arena + index -----------------------------------------------

TEST(MvStore, EntriesSurviveTableGrowth) {
  // Enough keys to fill many arena blocks and double the index many times;
  // the first keys' chains and LastReader timestamps must read the same
  // before and after all that growth.
  constexpr Key kEarly = 64;
  constexpr Key kTotal = 5000;
  PartitionStore s;
  std::vector<StoreReadResult> before;
  for (Key k = 0; k < kEarly; ++k) {
    s.load(k, "early" + std::to_string(k));
    before.push_back(s.read(k, 100 + k));
  }
  for (Key k = kEarly; k < kTotal; ++k) s.load(k, "late" + std::to_string(k));
  // One prepare over many fresh keys grows the table while it runs.
  std::vector<std::pair<Key, SharedValue>> fresh;
  for (Key k = kTotal; k < 2 * kTotal; ++k) {
    fresh.emplace_back(k, std::make_shared<Value>("w" + std::to_string(k)));
  }
  auto pr = s.prepare(kTx1, 50, fresh, /*precise=*/true, 0);
  ASSERT_TRUE(pr.ok);
  EXPECT_EQ(s.stats().keys, 2 * kTotal);

  for (Key k = 0; k < kEarly; ++k) {
    EXPECT_EQ(s.last_reader(k), 100 + k);
    const StoreReadResult r = s.peek(k, 1000);
    EXPECT_EQ(r.kind, ReadKind::Committed);
    EXPECT_EQ(r.value.get(), before[k].value.get()) << k;
    EXPECT_EQ(r.value_str(), "early" + std::to_string(k));
  }
  EXPECT_EQ(s.peek(kTotal - 1, 1000).value_str(),
            "late" + std::to_string(kTotal - 1));
  // Every fresh key holds tx1's pre-commit, in prepare order.
  const auto mine = s.uncommitted_updates(kTx1);
  ASSERT_EQ(mine.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(mine[i].first, fresh[i].first);
    EXPECT_EQ(mine[i].second.get(), fresh[i].second.get());
  }
  s.final_commit(kTx1, pr.proposed_ts);
  EXPECT_EQ(s.peek(2 * kTotal - 1, pr.proposed_ts).value_str(),
            "w" + std::to_string(2 * kTotal - 1));
  EXPECT_EQ(s.stats().versions, 2 * kTotal);
}

TEST(MvStore, MissingKeyReadCreatesEntryThatLiftsProposal) {
  PartitionStore s;
  EXPECT_EQ(s.read(7, 500).kind, ReadKind::NotFound);
  StoreStats st = s.stats();
  EXPECT_EQ(st.keys, 1u);
  EXPECT_EQ(st.versions, 0u);
  // peek never creates entries.
  EXPECT_EQ(s.peek(8, 500).kind, ReadKind::NotFound);
  EXPECT_EQ(s.stats().keys, 1u);
  // The phantom reader still serializes the first write of the key.
  auto pr = s.prepare(kTx1, 600, upd(7, "x"), /*precise=*/true, 0);
  ASSERT_TRUE(pr.ok);
  EXPECT_EQ(pr.proposed_ts, 501u);
  EXPECT_EQ(s.stats().keys, 1u);
}

TEST(MvStore, SpilledChainStaysCorrectAfterGcBackToOneVersion) {
  PartitionStore s;
  s.load(1, "v0");
  // Second version: the chain spills past its inline slot.
  ASSERT_TRUE(s.prepare(kTx1, 10, upd(1, "b"), true, 0).ok);
  s.final_commit(kTx1, 100);
  s.gc(150);
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.read(1, 99).kind, ReadKind::NotFound);
  EXPECT_EQ(s.read(1, 200).value_str(), "b");

  // Regrow on the kept capacity: tx2 local-commits, tx3 chains on top of it
  // and final-commits first, and GC trims back around the speculation.
  ASSERT_TRUE(s.prepare(kTx2, 200, upd(1, "c"), true, 0).ok);
  s.local_commit(kTx2, 250);
  FlatSet<TxId> deps{kTx2};
  ASSERT_TRUE(s.prepare(kTx3, 300, upd(1, "d"), true, 0, &deps).ok);
  s.local_commit(kTx3, 270);
  s.final_commit(kTx3, 280);
  s.gc(300);
  // "b" is gone; the local-committed kTx2 below the committed kTx3 stays.
  EXPECT_EQ(s.stats().versions, 2u);
  auto r = s.read(1, 500);
  EXPECT_EQ(r.kind, ReadKind::Blocked);  // uncommitted_count is still 1
  EXPECT_EQ(r.writer, kTx2);
  s.final_commit(kTx2, 260);
  r = s.read(1, 500);
  EXPECT_EQ(r.kind, ReadKind::Committed);  // ... and now 0
  EXPECT_EQ(r.value_str(), "d");
  EXPECT_EQ(s.uncommitted_txn_count(), 0u);
  s.gc(600);
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.read(1, 700).value_str(), "d");
}

void expect_same_dump(const std::vector<std::pair<Key, Version>>& a,
                      const std::vector<std::pair<Key, Version>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << i;
    EXPECT_EQ(a[i].second.ts, b[i].second.ts) << i;
    EXPECT_EQ(a[i].second.state, b[i].second.state) << i;
    EXPECT_EQ(a[i].second.writer(), b[i].second.writer()) << i;
    ASSERT_TRUE(a[i].second.value && b[i].second.value) << i;
    EXPECT_EQ(*a[i].second.value, *b[i].second.value) << i;
  }
}

TEST(MvStore, ReplayAfterClearRebuildsSortedDump) {
  // Keys touched in a scrambled order, with multi-version chains and
  // uncommitted versions on some of them.
  PartitionStore s;
  for (Key k = 0; k < 600; ++k) s.load((k * 7919) % 600, "v" + std::to_string(k));
  for (std::uint64_t i = 1; i <= 40; ++i) {
    const TxId tx{2, i};
    const Key key = (i * 131) % 600;
    ASSERT_TRUE(s.prepare(tx, 10 * i, upd(key, "u" + std::to_string(i)), true,
                          0).ok);
    if (i % 4 == 0) continue;  // stays pre-committed
    if (i % 4 == 1) {
      s.local_commit(tx, 10 * i + 1);
    } else {
      s.final_commit(tx, 10 * i + 2);
    }
  }
  const auto dump = s.dump_versions();
  for (std::size_t i = 1; i < dump.size(); ++i) {
    ASSERT_TRUE(dump[i - 1].first < dump[i].first ||
                (dump[i - 1].first == dump[i].first &&
                 dump[i - 1].second.ts < dump[i].second.ts))
        << i;
  }
  const auto txns = s.uncommitted_txns();
  ASSERT_FALSE(txns.empty());

  s.clear_all();
  EXPECT_EQ(s.stats().keys, 0u);
  EXPECT_EQ(s.uncommitted_txn_count(), 0u);
  // Replay in reverse: insertion order must not leak into the dump.
  for (auto it = dump.rbegin(); it != dump.rend(); ++it) {
    s.replay_insert(it->first, it->second);
  }
  expect_same_dump(s.dump_versions(), dump);
  EXPECT_EQ(s.uncommitted_txns(), txns);

  PartitionStore fresh;
  for (const auto& [key, v] : dump) fresh.replay_insert(key, v);
  expect_same_dump(fresh.dump_versions(), dump);
}

// Layout pins (the key entry's 64-byte pin sits beside its private
// definition in mvstore.hpp).
static_assert(sizeof(Version) == 40, "Version is pinned at 40 bytes");
static_assert(sizeof(KeyIndex::Slot) == 12, "index slots are pinned at 12 B");

TEST(KeyIndex, MatchesUnorderedMapAcrossDoublings) {
  KeyIndex index;
  std::unordered_map<Key, std::uint32_t> ref;
  Rng rng(41);
  auto insert = [&](Key key) {
    const auto want = static_cast<std::uint32_t>(ref.size());
    const auto [pos, inserted] = index.try_insert(key, want);
    const auto [it, ref_inserted] = ref.try_emplace(key, want);
    ASSERT_EQ(inserted, ref_inserted) << key;
    ASSERT_EQ(pos, it->second) << key;
  };
  insert(0);
  insert(UINT64_MAX);
  insert(0);  // present: keeps its first position
  insert(UINT64_MAX);
  // 20,000 inserts drawn from 12,000 keys (about 9,700 distinct, so many
  // are hits) take the index from 16 to 16,384 slots: 10 doublings.
  std::size_t slot_bytes = index.bytes();
  int doublings = 0;
  for (int i = 0; i < 20000; ++i) {
    insert(rng.uniform(12000) * 0x9E3779B97F4A7C15ULL);
    if (index.bytes() != slot_bytes) {
      ++doublings;
      slot_bytes = index.bytes();
    }
    if (i % 997 == 0) {
      for (const auto& [key, pos] : ref) ASSERT_EQ(index.find(key), pos);
    }
  }
  EXPECT_GE(doublings, 5);
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [key, pos] : ref) ASSERT_EQ(index.find(key), pos) << key;
  for (int i = 0; i < 2000; ++i) {
    const Key missing = rng.next();
    if (ref.count(missing) == 0) {
      ASSERT_EQ(index.find(missing), KeyIndex::kNotFound);
    }
  }
  std::size_t visited = 0;
  index.for_each([&](Key key, std::uint32_t pos) {
    ++visited;
    EXPECT_EQ(ref.at(key), pos);
  });
  EXPECT_EQ(visited, ref.size());
  EXPECT_EQ(index.bytes() % sizeof(KeyIndex::Slot), 0u);

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.bytes(), 0u);
  EXPECT_EQ(index.find(0), KeyIndex::kNotFound);
  EXPECT_EQ(index.try_insert(UINT64_MAX, 0).first, 0u);
}

TEST(MvStore, TableBytesAccountForEachStructure) {
  PartitionStore s;
  EXPECT_EQ(s.table_bytes().arena, 0u);
  EXPECT_EQ(s.table_bytes().index, 0u);
  for (Key k = 0; k < 256; ++k) s.load(k, "v");
  // One arena block of 256 one-cache-line entries; 256 keys at load <= 7/8
  // need 512 index slots.
  TableBytes b = s.table_bytes();
  EXPECT_EQ(b.arena, 256u * 64u);
  EXPECT_EQ(b.index, 512u * 12u);
  EXPECT_EQ(b.spilled_chains, 0u);
  s.load(256, "v");  // the 257th key opens a second block
  EXPECT_EQ(s.table_bytes().arena, 2u * 256u * 64u);
  // A pre-commit on a loaded key spills its chain: two 40-byte slots, kept
  // after the commit and the GC that trims the chain back to one version.
  ASSERT_TRUE(s.prepare(kTx1, 10, upd(3, "w"), true, 0).ok);
  EXPECT_EQ(s.table_bytes().spilled_chains, 2u * 40u);
  s.final_commit(kTx1, 20);
  s.gc(30);
  EXPECT_EQ(s.stats().versions, 257u);
  EXPECT_EQ(s.table_bytes().spilled_chains, 2u * 40u);
  s.clear_all();
  b = s.table_bytes();
  EXPECT_EQ(b.arena + b.index + b.spilled_chains, 0u);
}

}  // namespace
}  // namespace str::store
