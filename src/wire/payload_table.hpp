// Update-list table: decode a prepare or replicate to the sender's list.
//
// A write's value is allocated once, by the workload, and grouping a write
// set puts each partition's writes in one shared update list. Closure mode
// hands that list to every prepare and replicate, so every replica's
// version aliases the writer's payload. In wire mode each receiver rebuilds
// the list from frame bytes, so without help every replica would hold its
// own list and its own copy of every value. This table maps a list's
// identity — (writer TxId, PartitionId) — to a weak reference to the live
// list:
//
//   * `wire::post` records the sender's list of a prepare or replicate
//     before the first leg is encoded, once per fan-out;
//   * decoding a prepare or replicate takes one lookup. When every decoded
//     key and payload byte equals the recorded list, in order, the decode
//     hands back the list itself, as closure mode does; otherwise it builds
//     a fresh list whose values share the recorded list's where the bytes
//     match, and records it only when no live list was recorded;
//   * a read reply resolves its value by (writer, the key's partition): the
//     writer's recorded payload when the bytes match, else a fresh one.
//
// A recorded list is handed back only when its bytes equal the frame's, so
// the table can never change what a receiver sees. Entries hold weak
// references, so the table never keeps a list alive. The table holds the
// lists in flight: `forget()` drops a transaction's entry per list at its
// final outcome (its coordinator), because its payloads may live on in
// stored versions and in the transaction's later attempts; `sweep()` drops
// the entries whose list has been freed (Cluster's maintenance tick).
//
// The table is shared by every shard of a cluster. Its mutex is taken only
// when `locked` was set at construction — when more than one worker thread
// runs. It is the one lattice-wide structure a wire-mode send still locks:
// an entry recorded by one shard is resolved by another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/open_map.hpp"
#include "common/types.hpp"

namespace str::wire {

class PayloadTable {
 public:
  explicit PayloadTable(bool locked = false) : locked_(locked) {}

  /// The live list recorded for `writer`'s writes to `pid`, or null.
  SharedUpdates find(const TxId& writer, PartitionId pid) const;

  /// Record a (non-null) update list of `writer`'s writes to `pid`. A live
  /// recorded list stays: receivers may share it.
  void record(const TxId& writer, PartitionId pid, const SharedUpdates& list);

  /// Drop the entry of `writer`'s list for `pid` (its coordinator, at the
  /// final outcome). A frame of the attempt decoded later gets a list of
  /// its own.
  void forget(const TxId& writer, PartitionId pid);

  /// Drop every entry whose list has been freed.
  void sweep();

  /// Entries, live or expired (tests).
  std::size_t size() const;

  /// find() calls that returned a live list, since construction (tests).
  std::uint64_t found() const;

 private:
  struct ListId {
    TxId writer;
    PartitionId pid = 0;
    friend bool operator==(const ListId&, const ListId&) = default;
  };
  struct ListIdHash {
    std::size_t operator()(const ListId& id) const noexcept {
      return TxIdHash{}(id.writer) ^ static_cast<std::size_t>(mix_hash(id.pid));
    }
  };

  std::unique_lock<std::mutex> lock() const {
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    if (locked_) lk.lock();
    return lk;
  }

  const bool locked_;
  mutable std::mutex mu_;  ///< guards entries_ and found_ when locked_
  OpenMap<ListId, std::weak_ptr<const UpdateList>, ListIdHash> entries_;
  mutable std::uint64_t found_ = 0;
};

}  // namespace str::wire
