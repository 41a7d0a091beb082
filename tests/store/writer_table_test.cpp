// PartitionStore's writer table (who holds uncommitted versions, on which
// keys, at what timestamp) against a linear reference: random sequences of
// every operation that creates, moves or drops an uncommitted version, with
// every writer-table query compared after each step.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "store/mvstore.hpp"

namespace str::store {
namespace {

using Updates = std::vector<std::pair<Key, SharedValue>>;

/// Every snapshot sits above every timestamp the test writes, so committed
/// versions never conflict and certification reduces to the pre-commit lock.
constexpr Timestamp kSnapshot = sec(1'000'000);

struct RefWriter {
  TxId tx;
  Updates updates;  ///< prepare order
  Timestamp ts = 0;
  bool local = false;  ///< local-committed
};

/// The writer table as a vector searched linearly.
struct Reference {
  std::vector<RefWriter> writers;

  void erase(const TxId& tx) {
    std::erase_if(writers, [&tx](const RefWriter& w) { return w.tx == tx; });
  }
  /// Writers other than `tx` holding an uncommitted version on `key`.
  std::vector<const RefWriter*> holders(Key key, const TxId& tx) const {
    std::vector<const RefWriter*> out;
    for (const RefWriter& w : writers) {
      if (w.tx == tx) continue;
      for (const auto& [k, v] : w.updates) {
        if (k == key) out.push_back(&w);
      }
    }
    return out;
  }
};

::testing::AssertionResult same_tables(const PartitionStore& s,
                                       const Reference& ref,
                                       const std::vector<TxId>& gone) {
  if (s.uncommitted_txn_count() != ref.writers.size()) {
    return ::testing::AssertionFailure()
           << "count " << s.uncommitted_txn_count() << " vs "
           << ref.writers.size();
  }
  std::vector<TxId> txns;
  for (const RefWriter& w : ref.writers) txns.push_back(w.tx);
  std::sort(txns.begin(), txns.end());
  if (s.uncommitted_txns() != txns) {
    return ::testing::AssertionFailure() << "uncommitted_txns differ";
  }
  for (const RefWriter& w : ref.writers) {
    const std::string who =
        std::to_string(w.tx.node) + "#" + std::to_string(w.tx.seq);
    if (!s.has_uncommitted(w.tx)) {
      return ::testing::AssertionFailure() << who << " missing";
    }
    if (s.uncommitted_ts(w.tx) != w.ts) {
      return ::testing::AssertionFailure()
             << who << " ts " << s.uncommitted_ts(w.tx) << " vs " << w.ts;
    }
    if (s.uncommitted_updates(w.tx) != w.updates) {
      return ::testing::AssertionFailure() << who << " updates differ";
    }
  }
  for (const TxId& tx : gone) {
    if (s.has_uncommitted(tx) || s.uncommitted_ts(tx) != 0 ||
        !s.uncommitted_updates(tx).empty()) {
      return ::testing::AssertionFailure()
             << tx.node << "#" << tx.seq << " still listed";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WriterTable, MatchesLinearReferenceUnderRandomOperations) {
  constexpr Key kKeys = 48;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    PartitionStore s;
    Reference ref;
    std::vector<TxId> gone;  // decided writers, probed for absence
    std::uint64_t next_seq = 1;
    auto fresh_tx = [&]() {
      return TxId{static_cast<NodeId>(rng.uniform(4)), next_seq++};
    };
    // Distinct random keys; about half were never loaded, so prepare and
    // replicate also create entries.
    auto random_updates = [&]() {
      Updates u;
      const std::size_t n = 1 + rng.uniform(4);
      while (u.size() < n) {
        const Key k = rng.uniform(kKeys);
        if (std::none_of(u.begin(), u.end(),
                         [k](const auto& kv) { return kv.first == k; })) {
          // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict
          // inside `"literal" + std::to_string(n)`.
          u.emplace_back(k, std::make_shared<const Value>(Value("v").append(
                                std::to_string(rng.uniform(1000)))));
        }
      }
      return u;
    };
    auto pick = [&]() -> RefWriter* {
      if (ref.writers.empty()) return nullptr;
      return &ref.writers[rng.uniform(ref.writers.size())];
    };
    auto decided = [&](const TxId& tx) {
      ref.erase(tx);
      gone.push_back(tx);
      if (gone.size() > 64) gone.erase(gone.begin());
    };
    for (Key k = 0; k < kKeys; k += 2) s.load(k, "seed");

    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 30) {
        const TxId tx = fresh_tx();
        const Updates u = random_updates();
        bool free = true;
        for (const auto& [k, v] : u) free = free && ref.holders(k, tx).empty();
        const PrepareResult pr = s.prepare(tx, kSnapshot, u, true, 0);
        ASSERT_EQ(pr.ok, free) << "seed " << seed << " op " << op;
        if (pr.ok) ref.writers.push_back({tx, u, pr.proposed_ts, false});
      } else if (dice < 45) {
        const TxId tx = fresh_tx();
        const Updates u = random_updates();
        std::vector<TxId> losers;
        for (const auto& [k, v] : u) {
          for (const RefWriter* w : ref.holders(k, tx)) {
            if (w->local && std::find(losers.begin(), losers.end(), w->tx) ==
                                losers.end()) {
              losers.push_back(w->tx);
            }
          }
        }
        auto rr = s.replicate_insert(tx, u, true, 0);
        std::vector<TxId> evicted = rr.evicted;
        std::sort(evicted.begin(), evicted.end());
        std::sort(losers.begin(), losers.end());
        ASSERT_EQ(evicted, losers) << "seed " << seed << " op " << op;
        for (const TxId& loser : rr.evicted) {  // the caller's job
          s.abort_tx(loser);
          decided(loser);
        }
        const Timestamp ts = s.replicate_finish(tx, u, rr.proposed_ts);
        ref.writers.push_back({tx, u, ts, false});
      } else if (dice < 58) {
        RefWriter* w = pick();
        if (w != nullptr && !w->local) {
          w->ts = w->ts + rng.uniform(50);
          w->local = true;
          s.local_commit(w->tx, w->ts);
        }
      } else if (dice < 72) {
        if (RefWriter* w = pick()) {
          const TxId tx = w->tx;
          s.final_commit(tx, w->ts + rng.uniform(50));
          decided(tx);
        }
      } else if (dice < 86) {
        if (RefWriter* w = pick()) {
          const TxId tx = w->tx;
          s.abort_tx(tx);
          decided(tx);
        }
      } else if (dice < 98) {
        // A replayed in-doubt writer: versions installed one by one, with
        // no certification; its timestamp is the largest replayed.
        const TxId tx = fresh_tx();
        RefWriter w{tx, random_updates(), 0, false};
        for (const auto& [k, v] : w.updates) {
          const Timestamp ts = 1 + rng.uniform(1000);
          w.ts = std::max(w.ts, ts);
          s.replay_insert(k, Version{ts, VersionState::PreCommitted, tx, v});
        }
        // A committed replayed version joins no writer's entry.
        s.replay_insert(rng.uniform(kKeys),
                        Version{rng.uniform(1000), VersionState::Committed,
                                fresh_tx(), nullptr});
        ref.writers.push_back(std::move(w));
      } else {
        s.clear_all();
        for (const RefWriter& w : ref.writers) gone.push_back(w.tx);
        ref.writers.clear();
        for (Key k = 0; k < kKeys; k += 2) s.load(k, "seed");
      }
      ASSERT_TRUE(same_tables(s, ref, gone)) << "seed " << seed << " op "
                                             << op;
    }
  }
}

TEST(WriterTable, QueriesSurviveErasesFromTheMiddle) {
  // Forty writers, decided in an interleaved order: every query about the
  // survivors stays right as entries leave around them.
  PartitionStore s;
  Reference ref;
  std::vector<TxId> gone;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const TxId tx{static_cast<NodeId>(i % 3), i + 1};
    Updates u{{i, std::make_shared<const Value>("a")},
              {1000 + i, std::make_shared<const Value>("b")}};
    const PrepareResult pr = s.prepare(tx, kSnapshot, u, true, 0);
    ASSERT_TRUE(pr.ok);
    ref.writers.push_back({tx, u, pr.proposed_ts, false});
  }
  ASSERT_TRUE(same_tables(s, ref, gone));
  std::size_t at = 0;
  while (!ref.writers.empty()) {
    at = (at + 7) % ref.writers.size();
    const TxId tx = ref.writers[at].tx;
    if (tx.seq % 2 == 0) {
      s.final_commit(tx, 5000 + tx.seq);
    } else {
      s.abort_tx(tx);
    }
    ref.erase(tx);
    gone.push_back(tx);
    ASSERT_TRUE(same_tables(s, ref, gone));
  }
  EXPECT_EQ(s.uncommitted_txn_count(), 0u);
}

}  // namespace
}  // namespace str::store
