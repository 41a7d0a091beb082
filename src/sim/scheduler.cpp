#include "sim/scheduler.hpp"

namespace str::sim {

void Scheduler::enqueue(Timestamp at, UniqueFunction<void()>&& fn,
                        DeliveryGate gate) {
  // Never schedule into the past: an event produced "now" for an earlier
  // timestamp would break the monotonic clock.
  if (at < now_) at = now_;
  queue_.push(at, std::move(fn), gate);
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  EventQueue::Event ev = queue_.pop();
  now_ = ev.at;
  ++executed_;
  if (!ev.gate.empty()) {
    STR_ASSERT_MSG(gate_pred_ != nullptr, "gated event without a predicate");
    if (!gate_pred_(gate_ctx_, ev.gate)) return true;
  }
  ev.fn();
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Timestamp t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

std::uint64_t Scheduler::run_for_events(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace str::sim
