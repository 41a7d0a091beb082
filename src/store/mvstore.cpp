#include "store/mvstore.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/open_map.hpp"

namespace str::store {

void PartitionStore::load(Key key, SharedValue value) {
  KeyEntry& entry = table_[key];
  STR_ASSERT_MSG(entry.versions.empty(), "load on an already-populated key");
  entry.versions.push_back(
      Version{0, VersionState::Committed, kNoTx, std::move(value)});
  peak_chain_ = std::max<std::uint64_t>(peak_chain_, 1);
}

void PartitionStore::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    c_read_committed_ = c_read_speculative_ = c_read_blocked_ = nullptr;
    c_read_notfound_ = c_prepare_conflicts_ = c_versions_inserted_ = nullptr;
    c_gc_removed_ = nullptr;
    return;
  }
  c_read_committed_ = &registry->counter("store.read.committed");
  c_read_speculative_ = &registry->counter("store.read.speculative");
  c_read_blocked_ = &registry->counter("store.read.blocked");
  c_read_notfound_ = &registry->counter("store.read.notfound");
  c_prepare_conflicts_ = &registry->counter("store.prepare_conflicts");
  c_versions_inserted_ = &registry->counter("store.versions_inserted");
  c_gc_removed_ = &registry->counter("store.gc_removed");
}

void PartitionStore::count_read(ReadKind kind) {
  if (c_read_committed_ == nullptr) return;
  switch (kind) {
    case ReadKind::Committed: c_read_committed_->inc(); break;
    case ReadKind::Speculative: c_read_speculative_->inc(); break;
    case ReadKind::Blocked: c_read_blocked_->inc(); break;
    case ReadKind::NotFound: c_read_notfound_->inc(); break;
  }
}

StoreReadResult PartitionStore::read(Key key, Timestamp rs) {
  // Track the reader even for missing keys (the entry is created with an
  // empty chain): a later insert of this key must still be serialized after
  // us (write-after-read on a phantom).
  KeyEntry& entry = table_[key];
  entry.last_reader = std::max(entry.last_reader, rs);
  StoreReadResult out = read_chain(entry, rs);
  count_read(out.kind);
  return out;
}

StoreReadResult PartitionStore::peek(Key key, Timestamp rs) const {
  const KeyEntry* entry = table_.find(key);
  return entry == nullptr ? StoreReadResult{} : read_chain(*entry, rs);
}

StoreReadResult PartitionStore::read_chain(const KeyEntry& entry,
                                           Timestamp rs) {
  const auto& chain = entry.versions;
  if (chain.empty()) return StoreReadResult{};
  // Latest-committed fast path: under watermark pruning the chain usually
  // holds exactly the newest committed version, and most snapshots sit
  // above it. One branch resolves the read with no scan and no §5.1
  // wait-rule walk (the per-key uncommitted counter vouches for it).
  if (const Version& newest = chain.back();
      newest.state == VersionState::Committed && newest.ts <= rs &&
      entry.uncommitted_count == 0) {
    StoreReadResult out;
    out.writer = newest.writer();
    out.ts = newest.ts;
    out.kind = ReadKind::Committed;
    out.value = newest.value;
    return out;
  }
  // Latest version with ts <= rs. Chains are short (GC) so a reverse linear
  // scan beats binary search in practice.
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->ts > rs) continue;
    StoreReadResult out;
    out.writer = rit->writer();
    out.ts = rit->ts;
    switch (rit->state) {
      case VersionState::Committed: {
        // §5.1's wait rule applies to *any* uncommitted version at or below
        // the snapshot, not only the newest: an uncommitted version carries
        // its prepare proposal, which only lower-bounds its final commit
        // timestamp — it may yet commit above this committed version but
        // inside the snapshot (chained writers commit in dependency order,
        // while slave-side proposals are clamped only against pre-commit
        // timestamps). Reading past it would be a stale read, so block on
        // the newest such version instead. The per-key uncommitted counter
        // short-circuits the scan on the common all-committed path.
        if (entry.uncommitted_count == 0) {
          out.kind = ReadKind::Committed;
          out.value = rit->value;
          return out;
        }
        for (auto below = std::next(rit); below != chain.rend(); ++below) {
          if (below->state != VersionState::Committed) {
            out.writer = below->writer();
            out.ts = below->ts;
            out.kind = ReadKind::Blocked;
            return out;
          }
        }
        out.kind = ReadKind::Committed;
        out.value = rit->value;
        break;
      }
      case VersionState::LocalCommitted:
        out.kind = ReadKind::Speculative;
        out.value = rit->value;
        break;
      case VersionState::PreCommitted:
        out.kind = ReadKind::Blocked;
        break;
    }
    return out;
  }
  return StoreReadResult{};
}

PartitionStore::UncommittedKeys& PartitionStore::uncommitted_keys(
    const TxId& tx) {
  auto [keys, inserted] = uncommitted_.try_emplace(tx);
  if (inserted && !key_pool_.empty()) {
    *keys = std::move(key_pool_.back());
    key_pool_.pop_back();
  }
  return *keys;
}

void PartitionStore::erase_uncommitted(const TxId& tx, UncommittedKeys& keys) {
  keys.clear();
  key_pool_.push_back(std::move(keys));
  uncommitted_.erase(tx);
}

PrepareResult PartitionStore::prepare(
    const TxId& tx, Timestamp rs,
    const std::vector<std::pair<Key, SharedValue>>& updates,
    bool precise_clocks, Timestamp physical_now,
    const FlatSet<TxId>* chain_allowed) {
  STR_ASSERT_MSG(!replicating_.valid(),
                 "prepare between replicate_insert and replicate_finish");
  // Certification pass: no uncommitted version by a concurrent writer may
  // exist on any updated key, and no committed version newer than our
  // snapshot. Local-committed versions inside tx's speculative snapshot
  // (chain_allowed) are not concurrent. Each key's position is kept for
  // the passes below.
  resolved_.clear();
  for (const auto& [key, value] : updates) {
    const std::uint32_t pos = table_.find_position(key);
    resolved_.push_back(pos);
    if (pos == KeyIndex::kNotFound) continue;
    for (const Version& v : table_.at(pos).versions) {
      if (v.writer() == tx) continue;  // idempotent re-prepare
      if (v.state == VersionState::Committed) {
        if (v.ts > rs) {
          if (c_prepare_conflicts_ != nullptr) c_prepare_conflicts_->inc();
          return PrepareResult{false, 0, kNoTx};
        }
        continue;
      }
      const bool chained = v.state == VersionState::LocalCommitted &&
                           v.ts <= rs && chain_allowed != nullptr &&
                           chain_allowed->contains(v.writer());
      if (!chained) {
        if (c_prepare_conflicts_ != nullptr) c_prepare_conflicts_->inc();
        return PrepareResult{false, 0, v.writer()};
      }
    }
  }
  // Timestamp proposal (Precise Clocks rule from §5.3, or the physical-clock
  // rule of Clock-SI/Spanner), clamped above existing versions. Keys absent
  // so far get their entries here, in update order: a refused prepare
  // creates none.
  Timestamp proposed = precise_clocks ? 0 : physical_now;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (resolved_[i] == KeyIndex::kNotFound) {
      resolved_[i] = table_.position(updates[i].first);
    }
    const KeyEntry& entry = table_.at(resolved_[i]);
    if (precise_clocks) {
      proposed = std::max(proposed, entry.last_reader + 1);
    }
    if (!entry.versions.empty()) {
      proposed = std::max(proposed, entry.versions.back().ts + 1);
    }
  }
  if (ts_floor_ > 0) proposed = std::max(proposed, ts_floor_ + 1);
  // Insert pre-committed versions at the proposed timestamp.
  UncommittedKeys& mine = uncommitted_keys(tx);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& [key, value] = updates[i];
    KeyEntry& entry = table_.at(resolved_[i]);
    insert_sorted(entry.versions,
                  Version{proposed, VersionState::PreCommitted, tx, value});
    ++entry.uncommitted_count;
    mine.push_back({key, resolved_[i]});
  }
  if (c_versions_inserted_ != nullptr) c_versions_inserted_->inc(updates.size());
  return PrepareResult{true, proposed, kNoTx};
}

PartitionStore::ReplicateResult PartitionStore::replicate_insert(
    const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
    bool precise_clocks, Timestamp physical_now) {
  STR_ASSERT_MSG(!replicating_.valid(),
                 "replicate_insert before the last replicate_finish");
  replicating_ = tx;
  ReplicateResult out;
  // Evict conflicting local speculation: the master-certified pre-commit is
  // authoritative, so this node's own local-committed writers on these keys
  // lose (Alg. 2 line 31). Pre-committed versions from other replicated
  // transactions are master-approved chains and stay. A replicate is never
  // refused, so every key gets its entry here, in update order; its
  // position is kept for replicate_finish().
  Timestamp proposed = precise_clocks ? 0 : physical_now;
  resolved_.clear();
  for (const auto& [key, value] : updates) {
    const std::uint32_t pos = table_.position(key);
    resolved_.push_back(pos);
    const KeyEntry& entry = table_.at(pos);
    for (const Version& v : entry.versions) {
      if (v.writer() == tx) continue;
      if (v.state == VersionState::LocalCommitted &&
          std::find(out.evicted.begin(), out.evicted.end(), v.writer()) ==
              out.evicted.end()) {
        out.evicted.push_back(v.writer());
      }
    }
    if (precise_clocks) proposed = std::max(proposed, entry.last_reader + 1);
  }
  // Note: the caller aborts the evicted writers (which removes their
  // versions, possibly cascading) before we insert.
  if (ts_floor_ > 0) proposed = std::max(proposed, ts_floor_ + 1);
  out.proposed_ts = proposed;
  return out;
}

/// Completes replicate_insert after evictions: inserts the pre-committed
/// versions at a timestamp clamped above the surviving chain.
Timestamp PartitionStore::replicate_finish(
    const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
    Timestamp proposed) {
  STR_ASSERT_MSG(replicating_ == tx && resolved_.size() == updates.size(),
                 "replicate_finish without its replicate_insert");
  replicating_ = kNoTx;
  for (std::uint32_t pos : resolved_) {
    const VersionChain& chain = table_.at(pos).versions;
    if (!chain.empty()) proposed = std::max(proposed, chain.back().ts + 1);
  }
  UncommittedKeys& mine = uncommitted_keys(tx);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& [key, value] = updates[i];
    KeyEntry& entry = table_.at(resolved_[i]);
    insert_sorted(entry.versions,
                  Version{proposed, VersionState::PreCommitted, tx, value});
    ++entry.uncommitted_count;
    mine.push_back({key, resolved_[i]});
  }
  if (c_versions_inserted_ != nullptr) c_versions_inserted_->inc(updates.size());
  return proposed;
}

void PartitionStore::local_commit(const TxId& tx, Timestamp lc) {
  const UncommittedKeys* keys = uncommitted_.find(tx);
  if (keys == nullptr) return;
  for (const UncommittedKey& k : *keys) {
    VersionChain& chain = table_.at(k.pos).versions;
    Version* v = writer_version(chain, tx);
    if (v == nullptr) continue;
    STR_ASSERT(v->state == VersionState::PreCommitted);
    v->state = VersionState::LocalCommitted;
    v->ts = lc;
    reposition(chain, v);
  }
}

void PartitionStore::final_commit(const TxId& tx, Timestamp fc) {
  UncommittedKeys* keys = uncommitted_.find(tx);
  if (keys == nullptr) return;
  for (const UncommittedKey& k : *keys) {
    KeyEntry& entry = table_.at(k.pos);
    Version* v = writer_version(entry.versions, tx);
    if (v == nullptr) continue;
    STR_ASSERT(v->state != VersionState::Committed);
    v->state = VersionState::Committed;
    v->ts = fc;
    reposition(entry.versions, v);
    STR_ASSERT(entry.uncommitted_count > 0);
    --entry.uncommitted_count;
  }
  erase_uncommitted(tx, *keys);
}

void PartitionStore::abort_tx(const TxId& tx) {
  UncommittedKeys* keys = uncommitted_.find(tx);
  if (keys == nullptr) return;
  for (const UncommittedKey& k : *keys) {
    KeyEntry& entry = table_.at(k.pos);
    auto& chain = entry.versions;
    auto keep = std::remove_if(chain.begin(), chain.end(), [&](const Version& v) {
      return v.writer() == tx && v.state != VersionState::Committed;
    });
    const auto removed = static_cast<std::uint32_t>(chain.end() - keep);
    chain.erase(keep, chain.end());
    STR_ASSERT(entry.uncommitted_count >= removed);
    entry.uncommitted_count -= removed;
  }
  erase_uncommitted(tx, *keys);
}

bool PartitionStore::has_uncommitted(const TxId& tx) const {
  return uncommitted_.contains(tx);
}

Timestamp PartitionStore::uncommitted_ts(const TxId& tx) const {
  const UncommittedKeys* keys = uncommitted_.find(tx);
  if (keys == nullptr) return 0;
  Timestamp ts = 0;
  for (const UncommittedKey& k : *keys) {
    const Version* v = writer_version(table_.at(k.pos).versions, tx);
    if (v != nullptr && v->state != VersionState::Committed) {
      ts = std::max(ts, v->ts);
    }
  }
  return ts;
}

std::vector<TxId> PartitionStore::uncommitted_txns() const {
  std::vector<TxId> txns;
  txns.reserve(uncommitted_.size());
  for (const auto& slot : uncommitted_) txns.push_back(slot.key);
  std::sort(txns.begin(), txns.end());
  return txns;
}

std::vector<TxId> PartitionStore::uncommitted_writers(
    const std::vector<Key>& keys) const {
  std::vector<TxId> writers;
  for (Key key : keys) {
    const KeyEntry* entry = table_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.state != VersionState::Committed &&
          std::find(writers.begin(), writers.end(), v.writer()) ==
              writers.end()) {
        writers.push_back(v.writer());
      }
    }
  }
  return writers;
}

void PartitionStore::gc(Timestamp horizon) {
  const std::uint64_t removed_before = gc_removed_;
  table_.for_each([&](KeyEntry& entry) {
    auto& chain = entry.versions;
    if (chain.size() <= 1) return;
    // Find the newest committed version at or below the horizon; everything
    // committed strictly older than it is unreachable for any reader with
    // RS >= horizon.
    std::size_t keep_from = 0;
    for (std::size_t i = chain.size(); i-- > 0;) {
      if (chain[i].state == VersionState::Committed && chain[i].ts <= horizon) {
        keep_from = i;
        break;
      }
    }
    if (keep_from == 0) return;
    // Only drop committed versions below keep_from (uncommitted ones are
    // still subject to in-flight certification). Compact in place: the
    // chain keeps its capacity, so post-GC inserts don't regrow the vector.
    std::size_t out = 0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i < keep_from && chain[i].state == VersionState::Committed) {
        ++gc_removed_;
        continue;
      }
      if (out != i) chain[out] = std::move(chain[i]);
      ++out;
    }
    chain.resize(out);
  });
  if (c_gc_removed_ != nullptr) c_gc_removed_->inc(gc_removed_ - removed_before);
}

Timestamp PartitionStore::last_reader(Key key) const {
  const KeyEntry* entry = table_.find(key);
  return entry == nullptr ? 0 : entry->last_reader;
}

std::vector<std::pair<Key, SharedValue>> PartitionStore::uncommitted_updates(
    const TxId& tx) const {
  std::vector<std::pair<Key, SharedValue>> updates;
  for_each_uncommitted_update(tx, [&updates](Key key, const SharedValue& v) {
    updates.emplace_back(key, v);
  });
  return updates;
}

std::size_t PartitionStore::version_count() const {
  std::size_t n = 0;
  table_.for_each([&n](const KeyEntry& entry) { n += entry.versions.size(); });
  return n;
}

std::vector<std::pair<Key, Version>> PartitionStore::dump_versions() const {
  std::vector<std::pair<Key, Version>> out;
  out.reserve(version_count());
  for_each_version_sorted(
      [&out](Key key, const Version& v) { out.emplace_back(key, v); });
  return out;
}

void PartitionStore::clear_all() {
  table_.clear();
  for (auto& slot : uncommitted_) {
    slot.value.clear();
    key_pool_.push_back(std::move(slot.value));
  }
  uncommitted_.clear();
}

void PartitionStore::replay_insert(Key key, Version v) {
  const std::uint32_t pos = table_.position(key);
  KeyEntry& entry = table_.at(pos);
  if (v.state != VersionState::Committed) {
    uncommitted_keys(v.writer()).push_back({key, pos});
    ++entry.uncommitted_count;
  }
  insert_sorted(entry.versions, std::move(v));
}

StoreStats PartitionStore::stats() const {
  StoreStats s;
  s.keys = table_.size();
  s.gc_removed = gc_removed_;
  s.peak_chain = peak_chain_;
  table_.for_each([&](const KeyEntry& entry) {
    s.versions += entry.versions.size();
    for (const Version& v : entry.versions) {
      s.value_bytes += v.value ? v.value->size() : 0;
    }
  });
  return s;
}

std::uint64_t PartitionStore::storage_bytes(bool include_last_reader) const {
  // Per version: value payload + timestamp + state + writer id.
  constexpr std::uint64_t kVersionOverhead =
      sizeof(Timestamp) + sizeof(VersionState) + sizeof(TxId);
  std::uint64_t bytes = 0;
  table_.for_each([&](const KeyEntry& entry) {
    bytes += sizeof(Key);
    if (include_last_reader) bytes += sizeof(Timestamp);
    for (const Version& v : entry.versions) {
      bytes += kVersionOverhead + (v.value ? v.value->size() : 0);
    }
  });
  return bytes;
}

TableBytes PartitionStore::table_bytes() const {
  TableBytes b;
  b.arena = table_.arena_bytes();
  b.index = table_.index_bytes();
  table_.for_each([&b](const KeyEntry& entry) {
    if (entry.versions.capacity() > 1) {
      b.spilled_chains += entry.versions.capacity() * sizeof(Version);
    }
  });
  return b;
}

void PartitionStore::reposition(VersionChain& chain,
                                VersionChain::iterator vit) {
  // Slide *vit to its sorted slot in place (one rotate instead of the
  // erase + shifted re-insert). Stable: the element lands after every other
  // version with the same timestamp, exactly where insert_sorted would have
  // put it after an erase.
  auto dst = std::upper_bound(
      chain.begin(), chain.end(), vit->ts,
      [](Timestamp ts, const Version& existing) { return ts < existing.ts; });
  if (dst > vit + 1) {
    std::rotate(vit, vit + 1, dst);
  } else if (dst < vit) {
    std::rotate(dst, vit, vit + 1);
  }
}

void PartitionStore::insert_sorted(VersionChain& chain, Version v) {
  auto pos = std::upper_bound(
      chain.begin(), chain.end(), v.ts,
      [](Timestamp ts, const Version& existing) { return ts < existing.ts; });
  chain.insert(pos, std::move(v));
  peak_chain_ = std::max<std::uint64_t>(peak_chain_, chain.size());
}

std::uint32_t PartitionStore::KeyTable::position(Key key) {
  const auto [pos, inserted] = index_.try_insert(key, size_);
  if (inserted) {
    if ((size_ & (kBlockSize - 1)) == 0) {
      blocks_.push_back(std::make_unique<KeyEntry[]>(kBlockSize));
    }
    ++size_;
  }
  return pos;
}

void PartitionStore::KeyTable::clear() {
  index_.clear();
  blocks_.clear();
  size_ = 0;
}

std::vector<std::pair<Key, std::uint32_t>>
PartitionStore::KeyTable::sorted_keys() const {
  std::vector<std::pair<Key, std::uint32_t>> keys;
  keys.reserve(size_);
  index_.for_each(
      [&keys](Key key, std::uint32_t pos) { keys.emplace_back(key, pos); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

// -- KeyIndex ---------------------------------------------------------------

std::size_t KeyIndex::home(Key key) const {
  return static_cast<std::size_t>(mix_hash(key)) & (slots_.size() - 1);
}

std::uint32_t KeyIndex::find(Key key) const {
  if (slots_.empty()) return kNotFound;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.pos1 == 0) return kNotFound;
    if (s.key() == key) return s.pos1 - 1;
  }
}

std::pair<std::uint32_t, bool> KeyIndex::try_insert(Key key,
                                                    std::uint32_t pos) {
  STR_ASSERT_MSG(pos < kNotFound, "key table full");
  // Max load factor 7/8: linear probing stays short and growth is rare.
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.pos1 == 0) {
      s.key_lo = static_cast<std::uint32_t>(key);
      s.key_hi = static_cast<std::uint32_t>(key >> 32);
      s.pos1 = pos + 1;
      ++size_;
      return {pos, true};
    }
    if (s.key() == key) return {s.pos1 - 1, false};
  }
}

void KeyIndex::grow() {
  constexpr std::size_t kInitialSlots = 16;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.pos1 == 0) continue;
    std::size_t i = home(s.key());
    while (slots_[i].pos1 != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void KeyIndex::clear() {
  slots_ = std::vector<Slot>();
  size_ = 0;
}

}  // namespace str::store
