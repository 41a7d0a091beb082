// Move-only type-erased callable, used for scheduler events and network
// message closures. std::function requires copyability, which forces
// shared_ptr workarounds for captured promises; std::move_only_function is
// C++23. This is the minimal C++20 equivalent with small-buffer storage.
//
// Relocation is the cost that matters: a message closure moves from the
// sender's frame into a mailbox or event slot and out again before it runs.
// An inline callable that is trivially copyable (`[this]`, a coroutine
// handle, a few ids) relocates with one fixed-size memcpy of the buffer and
// needs no destructor call; every other callable relocates through its
// vtable. The buffer is deliberately left uninitialised, so constructing or
// moving a UniqueFunction never zero-fills it.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace str {

template <class Sig>
class UniqueFunction;

template <class R, class... Args>
class UniqueFunction<R(Args...)> {
  // Sized so the protocol's hot closures stay inline: coordinator
  // continuations and network message closures capture up to ~90 bytes
  // (this + ids + a shared_ptr payload + a small struct). Allocation
  // profiles of the synthetic 9-region run showed 48 was the single largest
  // spill source.
  static constexpr std::size_t kInlineSize = 96;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  struct VTable {
    R (*invoke)(void* obj, Args&&... args);
    void (*move_to)(void* from, void* to);  // move-construct into `to`
    void (*destroy)(void* obj);
    /// Stored inline and trivially copyable: relocated by a memcpy of the
    /// buffer, never through move_to, and never destroyed.
    bool trivial;
  };

  template <class F, bool Inline>
  static const VTable* vtable_for() {
    static const VTable vt = {
        // invoke
        [](void* obj, Args&&... args) -> R {
          F* f = Inline ? std::launder(reinterpret_cast<F*>(obj))
                        : *static_cast<F**>(obj);
          return (*f)(std::forward<Args>(args)...);
        },
        // move_to
        [](void* from, void* to) {
          if constexpr (Inline) {
            F* f = std::launder(reinterpret_cast<F*>(from));
            ::new (to) F(std::move(*f));
            f->~F();
          } else {
            *static_cast<F**>(to) = *static_cast<F**>(from);
          }
        },
        // destroy
        [](void* obj) {
          if constexpr (Inline) {
            std::launder(reinterpret_cast<F*>(obj))->~F();
          } else {
            delete *static_cast<F**>(obj);
          }
        },
        Inline && std::is_trivially_copyable_v<F>,
    };
    return &vt;
  }

 public:
  UniqueFunction() = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage_) Fn(std::forward<F>(f));
      vt_ = vtable_for<Fn, true>();
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      vt_ = vtable_for<Fn, false>();
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  R operator()(Args... args) {
    STR_ASSERT_MSG(vt_ != nullptr, "calling empty UniqueFunction");
    return vt_->invoke(storage_, std::forward<Args>(args)...);
  }

  void reset() {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

 private:
  // The memcpy copies the whole buffer, so it also copies the bytes past a
  // small callable that were never written. Copying indeterminate bytes of
  // a byte array is well defined; GCC flags it once a construction is
  // inlined next to the move.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void move_from(UniqueFunction& other) {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->trivial) {
        std::memcpy(storage_, other.storage_, kInlineSize);
      } else {
        vt_->move_to(other.storage_, storage_);
      }
      other.vt_ = nullptr;
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  alignas(kInlineAlign) std::byte storage_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace str
