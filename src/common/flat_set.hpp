// Sorted-vector replacements for std::set / std::map on hot protocol state.
//
// The SPSI bookkeeping sets (OLCSet, dependency sets, certification acks)
// are small, short-lived and per-transaction; node-based containers spend
// one allocation per element and defeat the transaction-record pooling.
// These containers keep their elements in one contiguous sorted vector, so
// a pooled record retains the capacity across reuse and steady-state
// inserts allocate nothing. Iteration order is ascending — identical to the
// std::set / std::map they replace, which keeps every fan-out and merge
// that walks them deterministic and unchanged.
//
// Only the operations the protocol uses are provided.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace str {

template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> init) {
    for (const T& v : init) insert(v);
  }

  std::pair<const_iterator, bool> insert(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it != data_.end() && *it == v) return {it, false};
    return {data_.insert(it, v), true};
  }

  /// Insert every element of [first, last). A sorted range (another
  /// FlatSet, say) merges in from the back in one pass over both, after
  /// one pass that counts what is new; an unsorted range is sorted into a
  /// copy first. The contents and order are those of inserting one element
  /// at a time.
  template <typename It>
  void insert(It first, It last) {
    if (std::is_sorted(first, last)) {
      merge_sorted(first, last);
      return;
    }
    std::vector<T> sorted(first, last);
    std::sort(sorted.begin(), sorted.end());
    merge_sorted(sorted.cbegin(), sorted.cend());
  }

  template <typename... Args>
  std::pair<const_iterator, bool> emplace(Args&&... args) {
    return insert(T(std::forward<Args>(args)...));
  }

  std::size_t erase(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it == data_.end() || !(*it == v)) return 0;
    data_.erase(it);
    return 1;
  }

  bool contains(const T& v) const {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    return it != data_.end() && *it == v;
  }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }  ///< keeps capacity (pooled-record reuse)
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

 private:
  /// insert(first, last) for a sorted bidirectional range, which may
  /// repeat elements.
  template <typename It>
  void merge_sorted(It first, It last) {
    // Count the range's new elements: not repeats, not in the set.
    std::size_t added = 0;
    auto at = data_.cbegin();
    for (It b = first; b != last; ++b) {
      if (b != first && !(*std::prev(b) < *b)) continue;
      while (at != data_.cend() && *at < *b) ++at;
      if (at == data_.cend() || *b < *at) ++added;
    }
    if (added == 0) return;
    // Grow as one-at-a-time inserts would, by doubling, but at most once:
    // a pooled record keeps the capacity for its next transaction.
    std::size_t a = data_.size();
    if (a + added > data_.capacity()) {
      std::size_t cap = std::max<std::size_t>(data_.capacity(), 1);
      while (cap < a + added) cap *= 2;
      data_.reserve(cap);
    }
    // Merge from the back: data_[0, a) is the part of the set not yet
    // moved, and the new elements not yet placed are the gap up to w.
    data_.resize(a + added);
    std::size_t w = data_.size();
    for (It b = last; w > a;) {
      --b;
      if (b != first && !(*std::prev(b) < *b)) continue;
      while (a > 0 && *b < data_[a - 1]) data_[--w] = std::move(data_[--a]);
      if (a > 0 && !(data_[a - 1] < *b)) continue;  // already in the set
      data_[--w] = *b;
    }
  }

  std::vector<T> data_;
};

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  std::pair<iterator, bool> emplace(const K& k, const V& v) {
    auto it = lower_bound(k);
    if (it != data_.end() && it->first == k) return {it, false};
    return {data_.insert(it, value_type{k, v}), true};
  }

  std::size_t erase(const K& k) {
    auto it = lower_bound(k);
    if (it == data_.end() || !(it->first == k)) return 0;
    data_.erase(it);
    return 1;
  }

  bool contains(const K& k) const {
    auto it = const_cast<FlatMap*>(this)->lower_bound(k);
    return it != data_.end() && it->first == k;
  }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }  ///< keeps capacity (pooled-record reuse)
  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

 private:
  iterator lower_bound(const K& k) {
    return std::lower_bound(
        data_.begin(), data_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> data_;
};

}  // namespace str
