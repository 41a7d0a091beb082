// A vector with inline storage for its first N elements.
//
// Version chains are the hot case: nearly every key holds exactly one
// committed version, so the store's key-table entries hold a chain with one
// inline slot (SmallVec<Version, 1>) and pay no heap block for the common
// key. Past N elements the contents spill to the heap and the container
// behaves like a plain vector; the heap block is kept when the contents
// shrink (resize/erase/clear), so a key spills at most once per growth step.
// Size and capacity are 32-bit, which keeps the header at 16 bytes.
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

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const { return const_reverse_iterator(begin()); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    new (data_ + size_) T(std::move(v));
    ++size_;
  }

  /// Insert before `pos`, shifting the tail right.
  iterator insert(iterator pos, T v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    if (size_ == cap_) grow();  // invalidates pos; use idx
    new (data_ + size_) T();    // default-construct the new tail slot
    for (std::size_t i = size_; i > idx; --i) data_[i] = std::move(data_[i - 1]);
    data_[idx] = std::move(v);
    ++size_;
    return data_ + idx;
  }

  /// Erase [first, last), shifting the tail left. Keeps capacity.
  iterator erase(iterator first, iterator last) {
    const std::size_t idx = static_cast<std::size_t>(first - data_);
    const std::size_t n = static_cast<std::size_t>(last - first);
    for (std::size_t i = idx; i + n < size_; ++i) {
      data_[i] = std::move(data_[i + n]);
    }
    std::destroy(data_ + size_ - n, data_ + size_);
    size_ -= static_cast<std::uint32_t>(n);
    return data_ + idx;
  }

  /// Shrink to `n` elements (n <= size()). Keeps capacity.
  void resize(std::size_t n) {
    std::destroy(data_ + n, data_ + size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void clear() { resize(0); }

 private:
  void grow() {
    const std::uint32_t new_cap = cap_ * 2;
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    std::uninitialized_move(data_, data_ + size_, heap);
    std::destroy(data_, data_ + size_);
    if (data_ != inline_data()) ::operator delete(data_);
    data_ = heap;
    cap_ = new_cap;
  }

  void destroy_all() {
    std::destroy(data_, data_ + size_);
    if (data_ != inline_data()) ::operator delete(data_);
    data_ = inline_data();
    size_ = 0;
    cap_ = N;
  }

  void assign_from(const SmallVec& other) {
    if (other.size_ > N) {
      data_ = static_cast<T*>(::operator new(other.cap_ * sizeof(T)));
      cap_ = other.cap_;
    }
    std::uninitialized_copy(other.data_, other.data_ + other.size_, data_);
    size_ = other.size_;
  }

  void steal_from(SmallVec&& other) {
    if (other.data_ != other.inline_data()) {
      // Steal the heap block; leave the source empty on its inline storage.
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.cap_ = N;
    } else {
      std::uninitialized_move(other.data_, other.data_ + other.size_, data_);
      size_ = other.size_;
      other.clear();
    }
  }

  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }

  T* data_ = inline_data();
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace str
