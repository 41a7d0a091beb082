// Open-addressing hash map (linear probing, power-of-two capacity).
//
// std::unordered_map allocates one node per key, which puts an allocation
// on every insert of a hot table. This table stores entries inline in a
// flat slot array: steady-state inserts allocate nothing, and growth is a
// single amortized rehash. Erase uses backward-shift deletion, so lookups
// never scan tombstones. Slots are sized for small values (every slot pays
// for one, occupied or not). Tables whose entries are only inserted, or
// expire together, use packed 12-byte slots of their own instead: the
// store's key index (store::KeyIndex in store/mvstore.hpp) and the actors'
// tombstones (protocol/tombstone_table.hpp).
//
// Determinism note: iteration order is a function of the key hashes and the
// insertion/erase sequence only — identical across runs for identical input
// sequences, which is all the simulation requires. No consumer depends on
// the order: the wire payload table is only swept with erase_if, whose
// result is order-independent, and the store's writer table is iterated
// only to list its writers, which the store sorts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace str {

/// Mixes the raw hash so that power-of-two masking sees all input bits
/// (std::hash on integers is the identity on common implementations).
inline std::uint64_t mix_hash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

template <typename K, typename V, typename Hash>
class OpenMap {
 public:
  struct Slot {
    K key;
    V value;
  };

  /// Forward iterator over occupied slots. Yields Slot& (use .key / .value);
  /// invalidated by any mutation.
  template <bool Const>
  class Iter {
   public:
    using MapT = std::conditional_t<Const, const OpenMap, OpenMap>;
    using SlotT = std::conditional_t<Const, const Slot, Slot>;

    Iter(MapT* map, std::size_t idx) : map_(map), idx_(idx) { skip(); }

    SlotT& operator*() const { return map_->slots_[idx_]; }
    SlotT* operator->() const { return &map_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }

   private:
    void skip() {
      while (idx_ < map_->states_.size() && map_->states_[idx_] == 0) ++idx_;
    }
    MapT* map_;
    std::size_t idx_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, states_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, states_.size()); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    states_.clear();
    size_ = 0;
  }

  V* find(const K& key) {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }

  const V* find(const K& key) const {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }

  bool contains(const K& key) const { return find_index(key) != kNotFound; }

  /// Find-or-default-insert.
  V& operator[](const K& key) {
    maybe_grow();
    std::size_t idx = probe_start(key);
    for (;;) {
      if (states_[idx] == 0) {
        states_[idx] = 1;
        slots_[idx].key = key;
        slots_[idx].value = V{};
        ++size_;
        return slots_[idx].value;
      }
      if (slots_[idx].key == key) return slots_[idx].value;
      idx = (idx + 1) & mask();
    }
  }

  /// Insert if absent; returns (value*, inserted).
  std::pair<V*, bool> try_emplace(const K& key, V value = V{}) {
    maybe_grow();
    std::size_t idx = probe_start(key);
    for (;;) {
      if (states_[idx] == 0) {
        states_[idx] = 1;
        slots_[idx].key = key;
        slots_[idx].value = std::move(value);
        ++size_;
        return {&slots_[idx].value, true};
      }
      if (slots_[idx].key == key) return {&slots_[idx].value, false};
      idx = (idx + 1) & mask();
    }
  }

  /// Backward-shift deletion: closes the probe chain so lookups stay
  /// tombstone-free. Returns true if the key was present.
  bool erase(const K& key) {
    std::size_t idx = find_index(key);
    if (idx == kNotFound) return false;
    std::size_t next = (idx + 1) & mask();
    while (states_[next] == 1) {
      const std::size_t home = probe_start(slots_[next].key);
      // Shift `next` into the hole unless it sits in its probe-ideal range
      // (i.e. the hole lies cyclically between home and next).
      const bool movable = ((next - home) & mask()) >= ((next - idx) & mask());
      if (movable) {
        slots_[idx] = std::move(slots_[next]);
        idx = next;
      }
      next = (next + 1) & mask();
    }
    states_[idx] = 0;
    slots_[idx] = Slot{};
    --size_;
    return true;
  }

  /// Erase every entry matching `pred(key, value)`. Collect-then-erase so
  /// backward shifting never skips a candidate mid-scan.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::vector<K> doomed;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == 1 && pred(slots_[i].key, slots_[i].value)) {
        doomed.push_back(slots_[i].key);
      }
    }
    for (const K& key : doomed) erase(key);
  }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInitialCap = 16;

  std::size_t mask() const { return states_.size() - 1; }

  std::size_t probe_start(const K& key) const {
    return mix_hash(static_cast<std::uint64_t>(Hash{}(key))) & mask();
  }

  std::size_t find_index(const K& key) const {
    if (states_.empty()) return kNotFound;
    std::size_t idx = probe_start(key);
    while (states_[idx] != 0) {
      if (slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask();
    }
    return kNotFound;
  }

  void maybe_grow() {
    if (states_.empty()) {
      slots_.resize(kInitialCap);
      states_.assign(kInitialCap, 0);
      return;
    }
    // Max load factor 7/8: linear probing stays short and growth is rare.
    if ((size_ + 1) * 8 <= states_.size() * 7) return;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_states = std::move(states_);
    slots_.assign(old_slots.size() * 2, Slot{});
    states_.assign(old_states.size() * 2, 0);
    size_ = 0;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] == 1) {
        try_emplace(std::move(old_slots[i].key), std::move(old_slots[i].value));
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> states_;
  std::size_t size_ = 0;
};

}  // namespace str
