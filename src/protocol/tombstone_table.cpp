#include "protocol/tombstone_table.hpp"

#include "common/assert.hpp"
#include "common/open_map.hpp"

namespace str::protocol {

TombstoneTable::TombstoneTable(Timestamp max_age) {
  STR_ASSERT_MSG(max_age <= kMaxOffset,
                 "tombstone horizon plus sweep period exceeds a 32-bit "
                 "stamp offset");
}

std::uint64_t TombstoneTable::pack(const TxId& tx) {
  STR_ASSERT_MSG(tx.node <= kMaxNode, "tombstone node id exceeds 16 bits");
  STR_ASSERT_MSG(tx.seq <= kMaxSeq, "tombstone sequence exceeds 48 bits");
  const std::uint64_t id = (std::uint64_t{tx.node} << 48) | tx.seq;
  STR_ASSERT_MSG(id != 0, "TxId packs to the empty-slot marker");
  return id;
}

std::size_t TombstoneTable::probe(std::uint64_t id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix_hash(id)) & mask;
  while (slots_[i].id() != id && slots_[i].id() != 0) i = (i + 1) & mask;
  return i;
}

void TombstoneTable::insert(const TxId& tx, Timestamp stamp) {
  STR_ASSERT_MSG(stamp >= base_ && stamp - base_ <= kMaxOffset,
                 "tombstone stamp outside the offset range above the base");
  const std::uint64_t id = pack(tx);
  // Max load factor 7/8: linear probing stays short and growth is rare.
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  const std::size_t i = probe(id);
  if (slots_[i].id() == id) return;  // the first stamp wins
  place(i, id, static_cast<std::uint32_t>(stamp - base_));
}

bool TombstoneTable::contains(const TxId& tx) const {
  if (slots_.empty()) return false;
  const std::uint64_t id = pack(tx);
  return slots_[probe(id)].id() == id;
}

void TombstoneTable::place(std::size_t i, std::uint64_t id,
                           std::uint32_t offset) {
  slots_[i] = Slot{static_cast<std::uint32_t>(id),
                   static_cast<std::uint32_t>(id >> 32), offset};
  ++size_;
}

void TombstoneTable::expire(Timestamp horizon) {
  if (horizon <= base_) return;
  const Timestamp shift = horizon - base_;
  base_ = horizon;
  if (size_ == 0) return;
  // One pass into a fresh array: survivors keep their stamps (offset
  // re-based by `shift`), expired entries simply stay behind, so no probe
  // chain ever needs repairing. The array is sized for everything held
  // before the sweep, which the next period's inserts refill, so a steady
  // load keeps its capacity and a falling one gives memory back.
  std::size_t capacity = kInitialSlots;
  while (size_ * 8 > capacity * 7) capacity *= 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  size_ = 0;
  for (const Slot& s : old) {
    if (s.id() == 0 || s.offset < shift) continue;
    place(probe(s.id()), s.id(), static_cast<std::uint32_t>(s.offset - shift));
  }
}

void TombstoneTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  size_ = 0;
  for (const Slot& s : old) {
    if (s.id() != 0) place(probe(s.id()), s.id(), s.offset);
  }
}

void TombstoneTable::clear() {
  slots_ = std::vector<Slot>();
  size_ = 0;
}

}  // namespace str::protocol
