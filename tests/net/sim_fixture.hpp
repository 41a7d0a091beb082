// Test fixture: a Network on the region-sharded lattice it always runs on.
#pragma once

#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/sharded.hpp"

namespace str::net {

// Two regions 50 ms apart, node 2 sharing region 0 with node 0. Like every
// Cluster, the network runs on the region-sharded lattice: one shard per
// region, here driven by one worker.
struct Sim {
  explicit Sim(double jitter = 0.0, std::uint64_t seed = 1)
      : net(lattice, Topology::symmetric(2, msec(100)), Rng(seed), jitter) {
    net.register_node(0, 0);
    net.register_node(1, 1);
    net.register_node(2, 0);
  }

  /// Run until nothing is pending; the clock stops at the last event.
  void run() {
    while (lattice.pending() > 0) lattice.run_until(lattice.next_event_time());
  }
  /// Run `fn` at `at` with every shard stopped there (a global task).
  void schedule_at(Timestamp at, UniqueFunction<void()> fn) {
    lattice.schedule_global(at, std::move(fn));
  }
  /// Virtual time of the shard executing the caller.
  Timestamp now() const { return lattice.current().now(); }

  sim::ShardedScheduler lattice{2, 1, msec(50)};
  Network net;
};

}  // namespace str::net
