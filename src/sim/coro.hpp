// Coroutine primitives for expressing protocol logic as straight-line code.
//
// Three building blocks:
//   Fiber       — an eagerly-started, fire-and-forget coroutine. Actors
//                 (clients, the self-tuner, transaction bodies) are Fibers.
//   Future<T> / Promise<T>
//               — a single-producer / single-consumer rendezvous. The
//                 consumer co_awaits the Future; the producer fulfills the
//                 Promise (possibly synchronously, possibly from a later
//                 event). Resumption is routed through the Scheduler so that
//                 event ordering stays deterministic and stacks stay flat.
//   Delay       — co_await scheduler.sleep(d) suspends for d virtual time.
//
// All of this is single-threaded: a promise state is only touched by the
// code of the shard that created it and by global tasks, which run between
// windows behind the lattice's barrier, so no atomics or locks are needed
// (and none are used). Promise states and Fiber frames come from per-thread free
// lists (sim/block_pool.hpp), so a read, a commit wait or a transaction
// attempt allocates nothing once the lists are warm.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/block_pool.hpp"
#include "sim/scheduler.hpp"

namespace str::sim {

/// Fire-and-forget coroutine. The coroutine starts executing immediately on
/// creation and destroys itself when it finishes.
struct Fiber {
  struct promise_type {
    Fiber get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }

    // The frame comes from the pool; the compiler passes its size to both.
    static void* operator new(std::size_t size) {
      return BlockPool::allocate(size);
    }
    static void operator delete(void* p, std::size_t size) noexcept {
      BlockPool::deallocate(p, size);
    }
  };
};

template <class T>
class Promise;

namespace detail {

template <class T>
struct SharedState {
  Scheduler* scheduler = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  std::uint32_t refs = 1;  ///< StateRef holders
  bool waiter_scheduled = false;

  static void* operator new(std::size_t size) {
    return BlockPool::allocate(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    BlockPool::deallocate(p, size);
  }

  void deliver() {
    STR_ASSERT(value.has_value());
    if (waiter && !waiter_scheduled) {
      waiter_scheduled = true;
      auto handle = waiter;
      scheduler->schedule_now([handle]() {
        STR_ASSERT_MSG(!handle.done(), "resuming a finished coroutine");
        handle.resume();
      });
    }
  }
};

/// Counted handle on a SharedState: a shared_ptr without the atomic counts
/// (see the file comment) and without a separate control block.
template <class T>
class StateRef {
 public:
  StateRef() = default;
  /// Adopts a fresh state's initial count.
  explicit StateRef(SharedState<T>* s) : s_(s) {}
  StateRef(const StateRef& other) : s_(other.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  StateRef(StateRef&& other) noexcept : s_(std::exchange(other.s_, nullptr)) {}
  StateRef& operator=(StateRef other) noexcept {
    std::swap(s_, other.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr && --s_->refs == 0) destroy(s_);
  }

  SharedState<T>* operator->() const { return s_; }
  SharedState<T>* get() const { return s_; }

 private:
  /// Out of line, so GCC's -Wuse-after-free does not take another handle's
  /// later use of the same state for a use of the freed one: inlined, the
  /// delete looks possible on a path where the count has not reached zero.
  [[gnu::noinline]] static void destroy(SharedState<T>* s) { delete s; }

  SharedState<T>* s_ = nullptr;
};

}  // namespace detail

/// Awaitable side of the rendezvous. Movable; exactly one consumer may
/// co_await it, exactly once.
template <class T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_.get() != nullptr; }
  bool ready() const { return valid() && state_->value.has_value(); }

  bool await_ready() const noexcept {
    STR_ASSERT_MSG(valid(), "awaiting invalid Future");
    return state_->value.has_value();
  }

  void await_suspend(std::coroutine_handle<> h) noexcept {
    STR_ASSERT_MSG(!state_->waiter, "Future supports a single waiter");
    state_->waiter = h;
  }

  T await_resume() {
    STR_ASSERT(state_->value.has_value());
    T out = std::move(*state_->value);
    return out;
  }

  /// Non-coroutine access for tests: requires the value to be present.
  const T& get() const {
    STR_ASSERT_MSG(ready(), "Future::get before fulfillment");
    return *state_->value;
  }

 private:
  template <class U>
  friend class Promise;

  explicit Future(detail::StateRef<T> s) : state_(std::move(s)) {}

  detail::StateRef<T> state_;
};

/// Producer side. Copyable so it can be captured into message closures that
/// travel through the simulated network.
template <class T>
class Promise {
 public:
  explicit Promise(Scheduler& sched)
      : state_(new detail::SharedState<T>()) {
    state_->scheduler = &sched;
  }

  Future<T> future() const { return Future<T>(state_); }

  bool fulfilled() const { return state_->value.has_value(); }

  void set_value(T v) {
    STR_ASSERT_MSG(!state_->value.has_value(), "Promise fulfilled twice");
    state_->value.emplace(std::move(v));
    state_->deliver();
  }

  /// Fulfill only if not already fulfilled; returns whether it did.
  bool try_set_value(T v) {
    if (state_->value.has_value()) return false;
    state_->value.emplace(std::move(v));
    state_->deliver();
    return true;
  }

 private:
  detail::StateRef<T> state_;
};

/// Awaitable virtual-time sleep.
class SleepAwaitable {
 public:
  SleepAwaitable(Scheduler& sched, Timestamp delay)
      : sched_(sched), delay_(delay) {}

  bool await_ready() const noexcept { return delay_ == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    sched_.schedule_after(delay_, [h]() { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Scheduler& sched_;
  Timestamp delay_;
};

inline SleepAwaitable sleep_for(Scheduler& sched, Timestamp delay) {
  return SleepAwaitable(sched, delay);
}

}  // namespace str::sim
