// Multi-version storage for one partition replica (Algorithm 2's KVStore).
//
// Responsibilities:
//  * version chains per key, ordered by timestamp, with the
//    PreCommitted -> LocalCommitted -> Committed lifecycle;
//  * the per-key LastReader timestamp that implements Precise Clocks;
//  * write-write conflict certification (at most one uncommitted version
//    may exist per key at any time — the pre-commit lock);
//  * snapshot reads: the latest version with ts <= RS, classified as
//    directly readable, speculatively readable, or blocking;
//  * horizon-based garbage collection of committed versions;
//  * storage accounting for the Precise Clocks overhead experiment (§6.1).
//
// The store is purely mechanical: all distribution, replication and
// dependency logic lives in the protocol layer.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "common/open_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "store/version.hpp"

namespace str::store {

/// Outcome classification for a snapshot read (Alg. 2 lines 6-14).
enum class ReadKind : std::uint8_t {
  Committed,    ///< latest version <= RS is final committed: return it
  Speculative,  ///< latest version <= RS is local-committed: a speculative
                ///< read may observe it (if the protocol allows)
  Blocked,      ///< latest version <= RS is pre-committed: reader must wait
  NotFound,     ///< no version at or below RS exists
};

struct StoreReadResult {
  ReadKind kind = ReadKind::NotFound;
  SharedValue value;  ///< valid for Committed/Speculative (shared, not copied)
  TxId writer;        ///< writer of the version (Committed/Speculative/Blocked)
  Timestamp ts = 0;   ///< timestamp of the version

  /// Payload as a string (empty when absent) — test/assertion convenience.
  const Value& value_str() const {
    static const Value kEmpty;
    return value ? *value : kEmpty;
  }
};

struct PrepareResult {
  bool ok = false;
  Timestamp proposed_ts = 0;  ///< valid when ok
  TxId conflicting_writer;    ///< when !ok and the conflict is an uncommitted
                              ///< version: its writer (else kNoTx)
};

/// Heap bytes held by a PartitionStore's key table, by structure (payloads
/// are shared with messages and other replicas and are not counted here).
struct TableBytes {
  std::uint64_t arena = 0;           ///< key entries, 64 B each, in blocks
  std::uint64_t index = 0;           ///< key -> position slots, 12 B each
  std::uint64_t spilled_chains = 0;  ///< version chains moved to the heap
};

/// Key -> arena position index behind the store's key table: insert-only
/// open addressing (linear probing, power-of-two capacity, max load 7/8)
/// over packed 12-byte slots. A slot stores the key and position + 1, so a
/// zero position marks an empty slot and every key, 0 included, is
/// storable. Keys are never erased (only clear() empties the index), so
/// there are no tombstones and no backward shifting.
class KeyIndex {
 public:
  static constexpr std::uint32_t kNotFound = UINT32_MAX;

  struct Slot {
    std::uint32_t key_lo = 0;
    std::uint32_t key_hi = 0;
    std::uint32_t pos1 = 0;  ///< arena position + 1; 0 = empty slot

    Key key() const { return (Key{key_hi} << 32) | key_lo; }
  };

  /// Arena position of `key`, or kNotFound.
  std::uint32_t find(Key key) const;

  /// Position of `key`, recording `pos` for it first if it is absent;
  /// returns (position, inserted). `pos` must be below kNotFound.
  std::pair<std::uint32_t, bool> try_insert(Key key, std::uint32_t pos);

  std::size_t size() const { return size_; }
  void clear();

  /// Visit every (key, position) pair, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.pos1 != 0) fn(s.key(), s.pos1 - 1);
    }
  }

  std::uint64_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  std::size_t home(Key key) const;
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

struct StoreStats {
  std::uint64_t keys = 0;
  std::uint64_t versions = 0;
  std::uint64_t value_bytes = 0;
  std::uint64_t gc_removed = 0;
  /// Longest version chain ever observed on any key (high-water mark; GC
  /// trims chains but never rewinds this). The §5 storage-overhead
  /// discussion and bench_core_speed report it as "peak versions/key".
  std::uint64_t peak_chain = 0;
};

class PartitionStore {
 public:
  /// Insert initial data as a committed version at timestamp 0.
  void load(Key key, SharedValue value);
  /// load() with a payload of its own.
  void load(Key key, Value value) {
    load(key, std::make_shared<const Value>(std::move(value)));
  }

  /// Snapshot read at `rs`. Updates LastReader as a side effect (Alg. 2 l.6).
  StoreReadResult read(Key key, Timestamp rs);

  /// Snapshot read that does NOT bump LastReader. Used when re-serving a
  /// parked read whose LastReader update already happened on first arrival.
  StoreReadResult peek(Key key, Timestamp rs) const;

  /// Write-write certification for `tx` updating `keys` against snapshot
  /// `rs` (Alg. 2 prepare, lines 15-21). On success inserts pre-committed
  /// versions and returns the proposed prepare timestamp:
  ///   precise clocks: max(LastReader+1) over the updated keys,
  ///   physical clocks: the caller-supplied `physical_now`.
  /// Both rules are clamped above any existing version timestamp on the keys
  /// so version chains stay ordered even for blind writes.
  ///
  /// `chain_allowed`, when non-null, lists transactions `tx` data-depends on:
  /// their local-committed versions with ts <= rs are part of tx's
  /// speculative snapshot and therefore *not* concurrent conflicts — tx may
  /// pre-commit "on top" of them. (If such a dependency later final-commits
  /// past tx's snapshot or aborts, tx is aborted by the dependency rules, so
  /// chaining never violates SPSI-2/3.)
  PrepareResult prepare(const TxId& tx, Timestamp rs,
                        const std::vector<std::pair<Key, SharedValue>>& updates,
                        bool precise_clocks, Timestamp physical_now,
                        const FlatSet<TxId>* chain_allowed = nullptr);

  struct ReplicateResult {
    Timestamp proposed_ts = 0;
    /// Local-committed writers whose versions conflicted with the replicated
    /// pre-commit; the caller must abort them (Alg. 2 line 31).
    std::vector<TxId> evicted;
  };

  /// Slave-side insert of a master-certified pre-commit (Alg. 2 lines
  /// 30-35). Never refuses: the master already serialized certification.
  /// Conflicting local-committed versions (this node's own speculation) are
  /// evicted and their writers reported for cascading abort.
  ReplicateResult replicate_insert(
      const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
      bool precise_clocks, Timestamp physical_now);

  /// Second half of the replicate path, run after the caller aborted the
  /// evicted writers: inserts the pre-committed versions and returns the
  /// final proposal (clamped above surviving versions). It reuses the key
  /// positions replicate_insert() resolved, so no prepare or replicate may
  /// run on this store between the two.
  Timestamp replicate_finish(
      const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
      Timestamp proposed);

  /// Transition tx's versions PreCommitted -> LocalCommitted at LC.
  void local_commit(const TxId& tx, Timestamp lc);

  /// Transition tx's versions to Committed at FC.
  void final_commit(const TxId& tx, Timestamp fc);

  /// Remove all versions written by tx (pre- or local-committed).
  void abort_tx(const TxId& tx);

  /// True if `tx` currently has uncommitted versions here.
  bool has_uncommitted(const TxId& tx) const;

  /// Prepare timestamp of tx's uncommitted versions (max over its keys);
  /// 0 when tx holds nothing here. Lets a participant re-answer a duplicated
  /// or re-sent prepare/replicate without re-inserting versions — including
  /// after a crash, since the prepared state is durable (2PC participants
  /// force-write their prepare record) while the reply caches are not.
  Timestamp uncommitted_ts(const TxId& tx) const;

  /// Writers currently holding uncommitted versions, sorted by TxId so
  /// crash-recovery iteration is deterministic.
  std::vector<TxId> uncommitted_txns() const;

  /// Number of transactions holding pre-commit locks here (leak probe).
  std::size_t uncommitted_txn_count() const { return uncommitted_.size(); }

  /// Largest committed timestamp <= `horizon` on `key`'s chain, or 0. Lets
  /// maintenance probe how far a key could be pruned (tests/debugging).
  Timestamp newest_committed_at_or_below(Key key, Timestamp horizon) const;

  /// Uncommitted writers holding versions on any of `keys` (conflict probe).
  std::vector<TxId> uncommitted_writers(const std::vector<Key>& keys) const;

  /// Remove committed versions strictly older than the newest committed
  /// version at or below `horizon`; that newest one is retained so any
  /// reader with RS >= horizon still finds its snapshot.
  void gc(Timestamp horizon);

  Timestamp last_reader(Key key) const;

  // -- WAL support (docs/DURABILITY.md) -------------------------------------

  /// `tx`'s uncommitted (key, payload) pairs in this store, in the order the
  /// keys were prepared — exactly what a WAL prepare/commit record needs.
  std::vector<std::pair<Key, SharedValue>> uncommitted_updates(
      const TxId& tx) const;

  /// The pairs uncommitted_updates(tx) returns, visited where they live as
  /// fn(key, payload), without building the vector.
  template <typename Fn>
  void for_each_uncommitted_update(const TxId& tx, Fn&& fn) const {
    const UncommittedKeys* keys = uncommitted_.find(tx);
    if (keys == nullptr) return;
    for (const UncommittedKey& k : *keys) {
      const Version* v = writer_version(table_.at(k.pos).versions, tx);
      if (v != nullptr && v->state != VersionState::Committed) {
        fn(k.key(), v->value);
      }
    }
  }

  /// Visit every version in the store as fn(key, version), sorted by
  /// (key, chain position): the checkpoint snapshot, built in one walk.
  /// Key order (each chain is already ascending by ts) keeps checkpoints
  /// byte-deterministic. LastReader timestamps are intentionally absent —
  /// they are volatile, and set_ts_floor() makes losing them safe.
  template <typename Fn>
  void for_each_version_sorted(Fn&& fn) const {
    for (const auto& [key, pos] : table_.sorted_keys()) {
      for (const Version& v : table_.at(pos).versions) fn(key, v);
    }
  }

  /// Number of versions for_each_version_sorted() visits.
  std::size_t version_count() const;

  /// for_each_version_sorted() collected into a vector.
  std::vector<std::pair<Key, Version>> dump_versions() const;

  /// Wipe everything (crash teardown in WAL mode; replay rebuilds).
  /// Cumulative counters (gc_removed, peak_chain) survive.
  void clear_all();

  /// Insert a replayed version directly, bypassing certification (the log
  /// already certified it). Non-Committed versions re-acquire the pre-commit
  /// lock bookkeeping.
  void replay_insert(Key key, Version v);

  /// Lower-bound every future prepare/replicate proposal above `floor`.
  /// Replay calls this with the restart-time physical clock: the LastReader
  /// table died with the crash, so without the floor a post-restart proposal
  /// could land inside a snapshot served before the crash.
  void set_ts_floor(Timestamp floor) { ts_floor_ = std::max(ts_floor_, floor); }

  /// Attach a metrics registry (the owning node's): read-outcome and
  /// certification counters are resolved once and bumped inline afterwards.
  void set_registry(obs::Registry* registry);

  StoreStats stats() const;

  /// Bytes of user data + per-version metadata; `include_last_reader` adds
  /// the 8-byte Precise Clocks timestamp per key (for the §6.1 overhead
  /// measurement).
  std::uint64_t storage_bytes(bool include_last_reader) const;

  /// Heap bytes the key table holds, by structure (memory accounting).
  TableBytes table_bytes() const;

 private:
  /// Nearly every key holds exactly one committed version (watermark GC
  /// trims the rest), so one version lives inline in the entry. The first
  /// time a key holds two — an in-flight pre-commit on top of the committed
  /// version — its chain spills to the heap once and keeps that capacity
  /// across GC, so later write cycles on the key allocate nothing.
  using VersionChain = SmallVec<Version, 1>;

  /// Per-key state: one cache line (a 48 B chain with its version inline,
  /// LastReader, the uncommitted count). The key itself lives only in the
  /// index.
  struct alignas(64) KeyEntry {
    VersionChain versions;  ///< sorted ascending by ts
    Timestamp last_reader = 0;
    /// Number of non-Committed versions in the chain. Lets reads skip the
    /// uncommitted-below-committed scan (§5.1's wait rule) on the common
    /// all-committed path.
    std::uint32_t uncommitted_count = 0;
  };
  static_assert(sizeof(KeyEntry) == 64 && alignof(KeyEntry) == 64,
                "a key entry is pinned at one 64-byte cache line");

  /// The key table: a dense, append-only arena of entries in fixed-size
  /// blocks behind a KeyIndex (key -> arena position, 12 B per slot). Keys
  /// are never erased except by clear(), so the arena has no load-factor
  /// slack, growth never copies an entry, and entry references stay valid
  /// while the table grows.
  class KeyTable {
   public:
    const KeyEntry* find(Key key) const {
      const std::uint32_t pos = index_.find(key);
      return pos == KeyIndex::kNotFound ? nullptr : &at(pos);
    }
    /// Arena position of `key`, or KeyIndex::kNotFound.
    std::uint32_t find_position(Key key) const { return index_.find(key); }
    /// Arena position of `key`, creating its entry if it is absent.
    std::uint32_t position(Key key);
    /// Find-or-create.
    KeyEntry& operator[](Key key) { return at(position(key)); }

    std::size_t size() const { return size_; }
    void clear();

    /// Visit every entry in arena (first-touch) order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::uint32_t i = 0; i < size_; ++i) fn(at(i));
    }
    template <typename Fn>
    void for_each(Fn&& fn) {
      for (std::uint32_t i = 0; i < size_; ++i) fn(at(i));
    }

    /// (key, arena position) pairs sorted by key.
    std::vector<std::pair<Key, std::uint32_t>> sorted_keys() const;

    std::uint64_t arena_bytes() const {
      return blocks_.size() * kBlockSize * sizeof(KeyEntry);
    }
    std::uint64_t index_bytes() const { return index_.bytes(); }

    KeyEntry& at(std::uint32_t pos) {
      return blocks_[pos >> kBlockShift][pos & (kBlockSize - 1)];
    }
    const KeyEntry& at(std::uint32_t pos) const {
      return blocks_[pos >> kBlockShift][pos & (kBlockSize - 1)];
    }

   private:
    static constexpr std::uint32_t kBlockShift = 8;
    static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;

    KeyIndex index_;
    std::vector<std::unique_ptr<KeyEntry[]>> blocks_;
    std::uint32_t size_ = 0;
  };

  /// The version `tx` wrote on `chain`, or null. A writer holds at most
  /// one version per key, inserted above every version then on the chain,
  /// so it sits at or near the newest end: the scan starts there.
  template <class Chain>
  static auto* writer_version(Chain& chain, const TxId& tx) {
    for (auto* v = chain.end(); v != chain.begin();) {
      if ((--v)->writer() == tx) return v;
    }
    return static_cast<decltype(chain.begin())>(nullptr);
  }

  /// Insert keeping the chain sorted (versions mostly append).
  void insert_sorted(VersionChain& chain, Version v);

  /// Re-sort a single element whose ts just changed, in place (state
  /// transitions re-timestamp one version; a rotate beats erase+insert).
  static void reposition(VersionChain& chain, VersionChain::iterator vit);

  /// Snapshot read of one entry's chain (shared by read and peek).
  static StoreReadResult read_chain(const KeyEntry& entry, Timestamp rs);

  KeyTable table_;

  /// One key a writer holds an uncommitted version on, with the key's arena
  /// position: entries never move until clear_all(), so state transitions
  /// reach the entry without the key index. Packed to 12 B like a KeyIndex
  /// slot.
  struct UncommittedKey {
    UncommittedKey(Key key, std::uint32_t position)
        : key_lo(static_cast<std::uint32_t>(key)),
          key_hi(static_cast<std::uint32_t>(key >> 32)),
          pos(position) {}

    Key key() const { return (Key{key_hi} << 32) | key_lo; }

    std::uint32_t key_lo;
    std::uint32_t key_hi;
    std::uint32_t pos;
  };
  using UncommittedKeys = std::vector<UncommittedKey>;
  /// writer -> its uncommitted keys in prepare order, for O(1) state
  /// transitions. Every in-flight writer keeps its pre-commit lock on a
  /// replica until its final commit crosses the WAN, so tens of writers are
  /// live at once on the bench_e2e workloads. The key vectors recycle
  /// through `key_pool_`, so the steady-state prepare/commit cycle
  /// allocates nothing here.
  OpenMap<TxId, UncommittedKeys, TxIdHash> uncommitted_;
  std::vector<UncommittedKeys> key_pool_;
  /// Arena positions of the update list in flight, one per update: filled
  /// by prepare() and by replicate_insert() (kept for replicate_finish(),
  /// whose transaction `replicating_` names), so each call resolves a key
  /// through the index once.
  std::vector<std::uint32_t> resolved_;
  TxId replicating_;

  /// Find-or-create the entry for `tx` (keys vector reused from the pool).
  UncommittedKeys& uncommitted_keys(const TxId& tx);
  /// Drop `tx`'s entry, recycling its keys vector.
  void erase_uncommitted(const TxId& tx, UncommittedKeys& keys);
  std::uint64_t gc_removed_ = 0;
  std::uint64_t peak_chain_ = 0;
  /// 0 = inactive (WAL-off runs never touch it; behaviour byte-identical).
  Timestamp ts_floor_ = 0;

  void count_read(ReadKind kind);

  obs::Counter* c_read_committed_ = nullptr;
  obs::Counter* c_read_speculative_ = nullptr;
  obs::Counter* c_read_blocked_ = nullptr;
  obs::Counter* c_read_notfound_ = nullptr;
  obs::Counter* c_prepare_conflicts_ = nullptr;
  obs::Counter* c_versions_inserted_ = nullptr;
  obs::Counter* c_gc_removed_ = nullptr;
};

}  // namespace str::store
