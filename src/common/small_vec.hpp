// A vector with inline storage for its first N elements.
//
// Version chains are the hot case: nearly every key holds exactly one
// committed version, so the store's key-table entries hold a chain with one
// inline slot (SmallVec<Version, 1>) and pay no heap block for the common
// key. Past N elements the contents spill to the heap and the container
// behaves like a plain vector; the heap block is kept when the contents
// shrink (resize/erase/clear), so a key spills at most once per growth step.
// The inline slots and the heap pointer share storage (capacity > N means
// "on the heap"), and size and capacity are 32-bit, which keeps the header
// at 8 bytes.
//
// Deliberately minimal: exactly the operations the store needs (sorted
// insert, erase, resize-down, reverse scan). Iterators are raw pointers and
// are invalidated by any mutation, like std::vector's on reallocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

namespace str {

template <typename T, std::size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  SmallVec() = default;

  SmallVec(const SmallVec& other) { assign_from(other); }

  SmallVec(SmallVec&& other) noexcept { steal_from(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      destroy_all();
      assign_from(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy_all();
      steal_from(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { destroy_all(); }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const { return const_reverse_iterator(begin()); }

  std::size_t size() const { return size_; }
  /// Element slots held: N while inline, the heap block's size once spilled.
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    new (data() + size_) T(std::move(v));
    ++size_;
  }

  /// Insert before `pos`, shifting the tail right.
  iterator insert(iterator pos, T v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data());
    if (size_ == cap_) grow();  // invalidates pos; use idx
    T* d = data();
    new (d + size_) T();  // default-construct the new tail slot
    for (std::size_t i = size_; i > idx; --i) d[i] = std::move(d[i - 1]);
    d[idx] = std::move(v);
    ++size_;
    return d + idx;
  }

  /// Erase [first, last), shifting the tail left. Keeps capacity.
  iterator erase(iterator first, iterator last) {
    T* d = data();
    const std::size_t idx = static_cast<std::size_t>(first - d);
    const std::size_t n = static_cast<std::size_t>(last - first);
    for (std::size_t i = idx; i + n < size_; ++i) d[i] = std::move(d[i + n]);
    std::destroy(d + size_ - n, d + size_);
    size_ -= static_cast<std::uint32_t>(n);
    return d + idx;
  }

  /// Shrink to `n` elements (n <= size()). Keeps capacity.
  void resize(std::size_t n) {
    std::destroy(data() + n, data() + size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void clear() { resize(0); }

 private:
  bool on_heap() const { return cap_ > N; }
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }
  const T* inline_data() const {
    return reinterpret_cast<const T*>(inline_storage_);
  }
  T* data() { return on_heap() ? heap_ : inline_data(); }
  const T* data() const { return on_heap() ? heap_ : inline_data(); }

  void grow() {
    const std::uint32_t new_cap = cap_ * 2;
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    if (on_heap()) {
      relocate(heap_, heap);
      ::operator delete(heap_);
    } else {
      relocate(inline_data(), heap);
    }
    // Inline elements are destroyed by now, so their storage may take the
    // heap pointer.
    heap_ = heap;
    cap_ = new_cap;
  }

  /// Move the elements from `from` into uninitialized `to`, then destroy
  /// the originals.
  void relocate(T* from, T* to) {
    std::uninitialized_move(from, from + size_, to);
    std::destroy(from, from + size_);
  }

  void destroy_all() {
    std::destroy(data(), data() + size_);
    if (on_heap()) ::operator delete(heap_);
    size_ = 0;
    cap_ = N;
  }

  /// Copy `other` into this (empty, inline) vector. A spilled source's
  /// capacity is kept, as in steal_from.
  void assign_from(const SmallVec& other) {
    if (other.size_ > N) {
      heap_ = static_cast<T*>(::operator new(other.cap_ * sizeof(T)));
      cap_ = other.cap_;
    }
    std::uninitialized_copy(other.data(), other.data() + other.size_, data());
    size_ = other.size_;
  }

  /// Move `other` into this (empty, inline) vector.
  void steal_from(SmallVec&& other) {
    if (other.on_heap()) {
      // Steal the heap block; leave the source empty on its inline storage.
      heap_ = other.heap_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.size_ = 0;
      other.cap_ = N;
    } else {
      std::uninitialized_move(other.inline_data(),
                              other.inline_data() + other.size_, inline_data());
      size_ = other.size_;
      other.clear();
    }
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  union {
    T* heap_;  ///< valid while on_heap()
    alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  };
};

}  // namespace str
