// The per-node cache partition (§5.2, second scenario).
//
// When an "unsafe" transaction (one that updated keys not replicated at its
// node) local-commits, the remote keys it wrote are temporarily stored here,
// tagged with its local-commit timestamp, so that later local transactions
// can speculatively read them promptly and atomically. Entries are removed
// when the writer final-commits (the authoritative replicas now hold the
// committed version) or aborts.
//
// The cache behaves exactly like a partition for certification purposes: it
// participates in local 2PC (so two local transactions cannot hold
// local-committed writes to the same remote key) and tracks LastReader so
// its prepare-timestamp proposals keep local-commit timestamps precise.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "store/mvstore.hpp"

namespace str::store {

class CachePartition {
 public:
  /// Certification + pre-committed insert for the remote-key subset of a
  /// local transaction's write set. Same contract as PartitionStore::prepare.
  PrepareResult prepare(const TxId& tx, Timestamp rs,
                        const std::vector<std::pair<Key, SharedValue>>& updates,
                        bool precise_clocks, Timestamp physical_now,
                        const FlatSet<TxId>* chain_allowed = nullptr) {
    return store_.prepare(tx, rs, updates, precise_clocks, physical_now,
                          chain_allowed);
  }

  void local_commit(const TxId& tx, Timestamp lc) { store_.local_commit(tx, lc); }

  /// On final commit the cached updates are dropped — the remote partitions
  /// are now authoritative (Alg. 1 line 44).
  void final_commit(const TxId& tx) { store_.abort_tx(tx); }

  void abort_tx(const TxId& tx) { store_.abort_tx(tx); }

  /// Snapshot read; only local-committed (speculative) hits are meaningful.
  StoreReadResult read(Key key, Timestamp rs) { return store_.read(key, rs); }

  /// True if some uncommitted version of `key` at or below `rs` lives here.
  bool holds(Key key, Timestamp rs) const {
    auto r = store_.peek(key, rs);
    return r.kind == ReadKind::Speculative || r.kind == ReadKind::Blocked;
  }

  StoreStats stats() const { return store_.stats(); }

  /// The versions held here (inspection).
  const PartitionStore& store() const { return store_; }

 private:
  PartitionStore store_;
};

}  // namespace str::store
