#include "sim/realtime.hpp"

#include <algorithm>

#include "sim/sharded.hpp"

namespace str::sim {

RealtimeDriver::RealtimeDriver(ShardedScheduler& sharded)
    : sharded_(sharded), origin_(std::chrono::steady_clock::now()) {}

void RealtimeDriver::enqueue(NodeId to, std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    inbox_.emplace_back(to, std::move(frame));
  }
  cv_.notify_one();
}

Timestamp RealtimeDriver::wall_now() const {
  const auto elapsed = std::chrono::steady_clock::now() - origin_;
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void RealtimeDriver::run_until(Timestamp target) {
  for (;;) {
    // Advance virtual time to min(wall, target), never backwards. Events up
    // to that instant run inline here; handlers they trigger may send
    // frames, which the transport threads carry concurrently.
    const Timestamp t =
        std::max(std::min(wall_now(), target), sharded_.now());
    sharded_.run_until(t);

    // Deliver everything the transports decoded while we ran. Swap under
    // the lock, dispatch outside it: deliver_ runs protocol code that may
    // send (and thus re-enter enqueue from a loop thread).
    std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> batch;
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(inbox_);
    }
    if (!batch.empty()) {
      for (auto& [to, frame] : batch) {
        ++frames_delivered_;
        deliver_(to, std::move(frame));
      }
      continue;  // dispatch may have scheduled events that are already due
    }

    if (wall_now() >= target) break;

    // Idle: sleep until the earliest event on any shard or global task, the
    // target, or a frame arrival. Both bounds are finite (target is), so
    // the wait never overflows.
    const Timestamp wake_vt = std::min(sharded_.next_event_time(), target);
    std::unique_lock<std::mutex> lk(mu_);
    if (!inbox_.empty()) continue;
    cv_.wait_until(lk, origin_ + std::chrono::microseconds(wake_vt),
                   [&] { return !inbox_.empty(); });
  }
  sharded_.run_until(target);
}

}  // namespace str::sim
