// Wall-clock driver for real transports: 1 virtual microsecond == 1 elapsed
// wall microsecond, anchored at construction.
//
// The DES stays the protocol oracle — every timer, retry and maintenance
// tick is still an event on the same region-sharded lattice every DES run
// uses, driven here by one worker. What changes is who advances the clock:
// instead of jumping straight to the next event time, run_until() lets it
// track the wall clock, and in the gaps between events it sleeps on a
// condition variable that transport loop threads poke whenever a decoded
// frame lands in the inbox. Frames are delivered on THIS thread (via the
// deliver callback, normally Network::deliver_frame → wire::dispatch_frame
// under the receiver's shard context), so protocol code remains
// single-threaded and needs no locks — exactly the DES execution model, at
// wall-clock speed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace str::sim {

class ShardedScheduler;

class RealtimeDriver {
 public:
  /// Called on the driver thread for each frame the transport delivered.
  using Deliver = std::function<void(NodeId to, std::vector<std::uint8_t>)>;

  /// Frames are delivered on the driver thread between the lattice's
  /// run_until calls, never while a shard window is executing.
  explicit RealtimeDriver(ShardedScheduler& sharded);

  void set_deliver(Deliver d) { deliver_ = std::move(d); }

  /// Thread-safe frame hand-off from transport loop threads (the RxHandler).
  void enqueue(NodeId to, std::vector<std::uint8_t> frame);

  /// Run events and deliver inbound frames until the virtual clock reaches
  /// `target` (absolute virtual time), pacing virtual time to the wall
  /// clock. Returns with the scheduler clock at exactly `target`.
  void run_until(Timestamp target);

  /// Elapsed wall time since construction, in virtual-time units (µs).
  Timestamp wall_now() const;

  std::uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  ShardedScheduler& sharded_;
  Deliver deliver_;
  const std::chrono::steady_clock::time_point origin_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> inbox_;

  std::uint64_t frames_delivered_ = 0;  // driver thread only
};

}  // namespace str::sim
