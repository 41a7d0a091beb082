// The virtual-time scheduler at the heart of the simulation.
//
// All protocol activity — message deliveries, clock waits, client think
// times, coroutine resumptions — is expressed as events on this single
// queue. Executing events in (time, sequence) order yields a linearizable,
// reproducible interleaving of the distributed computation.
//
// A network delivery is a *gated* event: it carries a DeliveryGate, and
// step() asks the installed gate predicate whether the destination still
// takes it before running the handler. A refused event still counts as
// executed, so executed() does not depend on which messages a crash
// swallowed in flight.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/event_queue.hpp"

namespace str::sim {

class Scheduler {
 public:
  /// Decides, when a gated event comes up, whether it still runs. Called
  /// with the context given to set_gate_predicate, in this scheduler's
  /// shard context; a refused event is dropped (and still counted in
  /// executed()).
  using GatePredicate = bool (*)(void* ctx, DeliveryGate gate);

  Timestamp now() const { return now_; }

  void schedule_at(Timestamp at, UniqueFunction<void()> fn) {
    enqueue(at, std::move(fn), {});
  }
  void schedule_after(Timestamp delay, UniqueFunction<void()> fn) {
    enqueue(now_ + delay, std::move(fn), {});
  }
  /// Run after all events already queued for the current instant.
  void schedule_now(UniqueFunction<void()> fn) {
    enqueue(now_, std::move(fn), {});
  }
  /// Schedule a delivery that runs only if the gate predicate admits
  /// `gate` at `at`. An empty gate schedules an ordinary event.
  void schedule_gated(Timestamp at, DeliveryGate gate,
                      UniqueFunction<void()>&& fn) {
    enqueue(at, std::move(fn), gate);
  }

  /// Install the predicate every gated event is checked against; required
  /// before the first gated event runs.
  void set_gate_predicate(GatePredicate pred, void* ctx) {
    gate_pred_ = pred;
    gate_ctx_ = ctx;
  }

  /// Execute the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run all events with timestamp <= t, then advance the clock to t.
  void run_until(Timestamp t);

  /// Drain the queue but stop after `max_events` (guards against livelock
  /// bugs in tests).
  std::uint64_t run_for_events(std::uint64_t max_events);

  // -- windowed execution (ShardedScheduler) --------------------------------

  /// Timestamp of the earliest pending event; kTsInfinity when idle.
  Timestamp next_event_time() const {
    return queue_.empty() ? kTsInfinity : queue_.next_time();
  }

  /// Execute every event with timestamp < `end` (exclusive), including
  /// events scheduled during the window that still land inside it. Does NOT
  /// advance the clock to `end`: within a conservative window the clock may
  /// only move by executing events, so shards never observe a time another
  /// shard could still send into.
  void run_window(Timestamp end) {
    while (!queue_.empty() && queue_.next_time() < end) step();
  }

  /// Advance the clock without executing anything. Only legal when no
  /// pending event predates `t` — i.e. at a barrier, once every shard has
  /// drained its window.
  void advance_to(Timestamp t) {
    if (now_ >= t) return;
    STR_ASSERT(queue_.empty() || queue_.next_time() >= t);
    now_ = t;
  }

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  void enqueue(Timestamp at, UniqueFunction<void()>&& fn, DeliveryGate gate);

  EventQueue queue_;
  Timestamp now_ = 0;
  std::uint64_t executed_ = 0;
  GatePredicate gate_pred_ = nullptr;
  void* gate_ctx_ = nullptr;
};

}  // namespace str::sim
