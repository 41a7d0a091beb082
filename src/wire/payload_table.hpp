// Write-identity payload table: one heap payload per write on the wire path.
//
// A write's value is allocated once, at the coordinator. Closure mode hands
// that one `SharedValue` to every message, replica version and read result.
// In wire mode each receiver rebuilds the value from frame bytes, so without
// help every replica of a write (rf of them) would hold its own copy. This
// table maps a write's identity — (writer TxId, Key) — to a weak reference
// to its live payload:
//
//   * `wire::post` records the sender's payloads for prepare and replicate
//     messages before they are encoded;
//   * `decode_frame` resolves every decoded value through the table: update
//     lists by the message's tx, read replies by their `writer` field.
//
// A live payload is handed back only when its bytes equal the frame's, so
// the table can never change what a receiver sees; otherwise a fresh
// payload is allocated and recorded in its place. Entries hold weak
// references, so the table never keeps a value alive; `sweep()` drops the
// entries whose payload has been freed (Cluster's maintenance tick).
//
// The table is shared by every shard of a cluster. Its mutex is taken only
// when `locked` was set at construction — when more than one worker thread
// runs. It is the one lattice-wide structure a wire-mode send still locks:
// an entry recorded by one shard is resolved by another.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>

#include "common/open_map.hpp"
#include "common/types.hpp"

namespace str::wire {

class PayloadTable {
 public:
  explicit PayloadTable(bool locked = false) : locked_(locked) {}

  /// The payload of write (writer, key) holding exactly `bytes`: the
  /// recorded one while it is live and its bytes match, else a fresh
  /// allocation, recorded in its place.
  SharedValue resolve(const TxId& writer, Key key, std::string_view bytes);

  /// Record a sender's (non-null) payload for write (writer, key). A live
  /// recorded payload with the same bytes stays: receivers may share it.
  void record(const TxId& writer, Key key, const SharedValue& value);

  /// Drop every entry whose payload has been freed.
  void sweep();

  /// Entries, live or expired (tests).
  std::size_t size() const;

 private:
  struct WriteId {
    TxId writer;
    Key key = 0;
    friend bool operator==(const WriteId&, const WriteId&) = default;
  };
  struct WriteIdHash {
    std::size_t operator()(const WriteId& id) const noexcept {
      return TxIdHash{}(id.writer) ^ static_cast<std::size_t>(mix_hash(id.key));
    }
  };

  std::unique_lock<std::mutex> lock() const {
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    if (locked_) lk.lock();
    return lk;
  }

  const bool locked_;
  mutable std::mutex mu_;  ///< guards entries_ when locked_
  OpenMap<WriteId, std::weak_ptr<const Value>, WriteIdHash> entries_;
};

}  // namespace str::wire
