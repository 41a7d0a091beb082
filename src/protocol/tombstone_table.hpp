// Tombstones of decided transactions at one partition replica.
//
// A replica writes one tombstone per transaction it sees committed or
// aborted and keeps it for the tombstone horizon, so that a prepare or
// replicate of that transaction arriving late (message reordering,
// duplicates, re-sends) is recognised and dropped. On abort-heavy runs most
// of an actor's volatile memory is tombstones, so the table is packed:
//
//   * a TxId packs into 64 bits, node in the high 16 and seq in the low 48
//     (Cluster caps the node count at kMaxNode + 1). Sequence numbers start
//     at 1, so the packed id 0 never names a transaction and marks an empty
//     slot;
//   * the stamp is a 32-bit offset above the base, the horizon of the last
//     sweep that moved it. Stamps come from the replica's physical clock,
//     which only moves forward, so a stamp written between sweeps lies at
//     most one horizon length plus one sweep period above the base.
//
// That makes a slot 12 bytes. The table is insert-only open addressing
// (linear probing, power-of-two capacity, max load 7/8) between sweeps;
// expire() rebuilds it in one pass, keeping exactly the entries stamped at
// or above the new horizon and re-basing their offsets, into a capacity
// sized for what the table held before the sweep. The first stamp written
// for a transaction wins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace str::protocol {

class TombstoneTable {
 public:
  static constexpr Timestamp kMaxOffset = UINT32_MAX;
  static constexpr NodeId kMaxNode = 0xFFFF;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << 48) - 1;

  /// `max_age` is how far above the last sweep's horizon a stamp can lie:
  /// the horizon length plus the sweep period. It must fit an offset.
  explicit TombstoneTable(Timestamp max_age);

  /// Record `tx`'s tombstone at `stamp` unless it already has one. The
  /// stamp must lie within kMaxOffset at or above the base.
  void insert(const TxId& tx, Timestamp stamp);

  bool contains(const TxId& tx) const;

  /// Drop every tombstone stamped below `horizon`, and make `horizon` the
  /// new base. A horizon at or below the base drops nothing.
  void expire(Timestamp horizon);

  /// Drop everything (crash: tombstones are volatile). The base stays.
  void clear();

  std::size_t size() const { return size_; }
  Timestamp base() const { return base_; }

  /// Heap bytes the slot array holds.
  std::uint64_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// The 64-bit form of `tx` a slot stores (never 0 for a valid id).
  static std::uint64_t pack(const TxId& tx);

 private:
  struct Slot {
    std::uint32_t id_lo = 0;
    std::uint32_t id_hi = 0;
    std::uint32_t offset = 0;  ///< stamp - base

    std::uint64_t id() const { return (std::uint64_t{id_hi} << 32) | id_lo; }
  };
  static_assert(sizeof(Slot) == 12, "a tombstone slot is 12 bytes");

  static constexpr std::size_t kInitialSlots = 16;

  /// Slot holding `id`, else the empty slot that ends its probe chain.
  std::size_t probe(std::uint64_t id) const;
  /// Fill the empty slot `i` (from probe()).
  void place(std::size_t i, std::uint64_t id, std::uint32_t offset);
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  Timestamp base_ = 0;
};

}  // namespace str::protocol
