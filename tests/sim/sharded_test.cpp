// ShardedScheduler contract tests.
//
// The headline claim is *thread-count invariance*: shard count (not worker
// count) fixes the trajectory, so the same seeded workload must produce
// identical per-shard execution logs with 1, 2 or 4 OS threads. The tests
// drive a self-expanding synthetic workload — every executed event
// deterministically spawns local events and cross-shard handoffs from its own
// id — and compare the full (time, id) log per shard across worker counts.
// Per-shard logs are appended only by the worker that owns the shard during a
// window, so the logs themselves need no synchronization.

#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace str::sim {
namespace {

constexpr Timestamp kHorizon = msec(10);

// splitmix64: cheap, stateless per-event randomness so the workload is a pure
// function of event ids, never of execution interleaving.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Self-expanding workload: each event logs itself, then (while the budget
// lasts) spawns one local event and sometimes one cross-shard handoff.
struct Harness {
  explicit Harness(ShardedScheduler& sched)
      : ss(sched), logs(sched.num_shards()) {}

  void fire(std::uint32_t shard, std::uint64_t id) {
    Scheduler& sched = ss.shard(shard);
    logs[shard].emplace_back(sched.now(), id);
    // The expansion bound must be a pure function of the event id: a shared
    // "events spawned so far" budget would make the workload depend on
    // cross-shard execution interleaving, defeating the invariance test.
    if (id > max_id) return;
    const std::uint64_t r = mix(id);
    const Timestamp now = sched.now();
    {
      const std::uint64_t child = id * 2 + 1;
      sched.schedule_after(usec(r % 3000), [this, shard, child] {
        fire(shard, child);
      });
    }
    if (ss.num_shards() > 1 && (r >> 32) % 3 == 0) {
      const auto dst = static_cast<std::uint32_t>(
          (shard + 1 + (r >> 40) % (ss.num_shards() - 1)) % ss.num_shards());
      const std::uint64_t child = id * 2 + 2;
      // A cross-shard handoff may never undercut the lookahead horizon —
      // exactly the WAN guarantee the simulator gets for free.
      ss.post_cross(dst, now + kHorizon + usec((r >> 16) % 5000),
                    [this, dst, child] { fire(dst, child); });
    }
  }

  ShardedScheduler& ss;
  std::vector<std::vector<std::pair<Timestamp, std::uint64_t>>> logs;
  std::uint64_t max_id = 1000ULL << 24;
};

std::vector<std::vector<std::pair<Timestamp, std::uint64_t>>> run_workload(
    std::uint32_t shards, std::uint32_t workers) {
  ShardedScheduler ss(shards, workers, kHorizon);
  Harness h(ss);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ss.shard(s).schedule_after(usec(100 + 17 * s),
                               [&h, s] { h.fire(s, 1000 + s); });
  }
  ss.run_until(sec(30));
  EXPECT_EQ(ss.pending(), 0u);
  return std::move(h.logs);
}

TEST(ShardedScheduler, SingleShardExecutesInlineWithoutWorkers) {
  // One region: the same epoch loop runs on the calling thread alone, with
  // an infinite horizon (no other shard can send into a window).
  ShardedScheduler ss(1, 4, kTsInfinity);
  EXPECT_EQ(ss.num_workers(), 1u);
  std::vector<int> order;
  ss.shard(0).schedule_at(msec(5), [&] { order.push_back(2); });
  ss.shard(0).schedule_at(msec(1), [&] { order.push_back(1); });
  // A global task bounds the window, so it still interleaves purely by time.
  ss.schedule_global(msec(3), [&] { order.push_back(10); });
  ss.run_until(msec(20));
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(ss.now(), msec(20));
  EXPECT_EQ(ss.executed(), 2u);  // shard events; the global task is apart
  EXPECT_EQ(ss.pending(), 0u);
}

TEST(ShardedScheduler, InstallerGetsTheGateBesideTheHandler) {
  // The network installs cross-shard deliveries itself (into the
  // destination's handler pool); the gate travels next to the handler and
  // the merge order is unchanged.
  ShardedScheduler ss(2, 1, kHorizon);
  std::vector<std::pair<NodeId, std::uint64_t>> gates;
  std::vector<int> order;
  ss.set_installer([&](std::uint32_t dst, Timestamp at,
                       DeliveryGate gate, UniqueFunction<void()> fn) {
    EXPECT_EQ(dst, 1u);
    gates.emplace_back(gate.to, gate.epoch);
    ss.shard(dst).schedule_at(at, std::move(fn));
  });
  ss.shard(0).schedule_at(msec(1), [&] {
    ss.post_cross(1, msec(30), [&] { order.push_back(2); }, {7, 3});
    ss.post_cross(1, msec(20), [&] { order.push_back(1); }, {8, 0});
  });
  ss.run_until(msec(50));
  EXPECT_EQ(gates, (std::vector<std::pair<NodeId, std::uint64_t>>{{7, 3},
                                                                  {8, 0}}));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ss.cross_posts(), 2u);
}

TEST(ShardedScheduler, IdenticalTrajectoryForEveryWorkerCount) {
  const auto base = run_workload(3, 1);
  std::uint64_t total = 0;
  for (const auto& log : base) total += log.size();
  ASSERT_GT(total, 3000u);  // the workload actually expanded
  EXPECT_EQ(run_workload(3, 2), base);
  EXPECT_EQ(run_workload(3, 3), base);
  // Worker counts beyond the shard count clamp; still identical.
  EXPECT_EQ(run_workload(3, 8), base);
}

TEST(ShardedScheduler, CrossShardTieBreakIsSrcThenSeq) {
  // Two sources each hand two events to shard 0 at the *same* arrival time.
  // The merge order must be (src asc, append-seq asc), independent of which
  // worker drained its window first.
  for (std::uint32_t workers : {1u, 3u}) {
    ShardedScheduler ss(3, workers, kHorizon);
    std::vector<int> order;
    const Timestamp arrive = msec(50);
    ss.shard(1).schedule_at(msec(1), [&ss, &order, arrive] {
      ss.post_cross(0, arrive, [&order] { order.push_back(10); });
      ss.post_cross(0, arrive, [&order] { order.push_back(11); });
    });
    ss.shard(2).schedule_at(msec(1), [&ss, &order, arrive] {
      ss.post_cross(0, arrive, [&order] { order.push_back(20); });
      ss.post_cross(0, arrive, [&order] { order.push_back(21); });
    });
    ss.run_until(msec(100));
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21})) << "workers="
                                                         << workers;
    EXPECT_EQ(ss.cross_posts(), 4u);
  }
}

TEST(ShardedScheduler, GlobalTasksSeeAllShardsQuiescedAtTaskTime) {
  ShardedScheduler ss(2, 2, kHorizon);
  // Dense local activity on both shards straddling the task time.
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (int i = 1; i <= 40; ++i) {
      ss.shard(s).schedule_at(msec(i), [] {});
    }
  }
  bool ran = false;
  ss.schedule_global(msec(25) + usec(500), [&] {
    ran = true;
    for (std::uint32_t s = 0; s < 2; ++s) {
      // Every earlier event has executed and the clock sits exactly at the
      // task time: the task observes a consistent cluster-wide snapshot.
      EXPECT_EQ(ss.shard(s).now(), msec(25) + usec(500));
      EXPECT_GE(ss.shard(s).next_event_time(), msec(26));
    }
  });
  ss.run_until(msec(60));
  EXPECT_TRUE(ran);
}

TEST(ShardedScheduler, GlobalTasksAtEqualTimeRunInScheduleOrder) {
  ShardedScheduler ss(2, 2, kHorizon);
  std::vector<int> order;
  ss.schedule_global(msec(5), [&] { order.push_back(1); });
  ss.schedule_global(msec(5), [&] { order.push_back(2); });
  ss.schedule_global(msec(2), [&] { order.push_back(0); });
  ss.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedScheduler, GlobalTaskCanRescheduleItselfLikeMaintenance) {
  ShardedScheduler ss(2, 2, kHorizon);
  // The cluster's watermark maintenance is exactly this shape: a task that
  // re-arms itself every interval. Ensure the heap handles re-entrancy.
  int ticks = 0;
  std::function<void(Timestamp)> arm = [&](Timestamp at) {
    ss.schedule_global(at, [&, at] {
      ++ticks;
      if (at < msec(50)) arm(at + msec(10));
    });
  };
  arm(msec(10));
  ss.shard(0).schedule_at(msec(55), [] {});
  ss.run_until(msec(60));
  EXPECT_EQ(ticks, 5);
}

TEST(ShardedScheduler, ForEachWorkerVisitsEveryWorkerOnce) {
  ShardedScheduler ss(4, 3, kHorizon);
  ASSERT_EQ(ss.num_workers(), 3u);
  std::vector<std::atomic<int>> hits(3);
  std::function<void(std::uint32_t)> tally = [&](std::uint32_t w) {
    hits[w].fetch_add(1);
  };
  ss.for_each_worker(tally);
  for (int w = 0; w < 3; ++w) EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
}

// Barrier stress: thousands of short windows, every one of them handing
// posts across shards, with global tasks and for_each_worker generations
// interleaved between them. Every shard ticks once per step, the highest
// shard first in virtual time, and each tick posts to every other shard for
// the step boundary two steps on: every destination sees bursts of
// same-instant arrivals, all sent in one window, which must run in (src
// shard, send order) — the reverse of their virtual send order. Global
// tasks post too, one microsecond off the boundaries so their batches never
// share an instant with a window's. The spin-to-park transitions of the
// barrier get exercised at every worker count.
struct StressRun {
  /// Per destination: (arrival, src, per-src send sequence) in run order.
  std::vector<std::vector<std::tuple<Timestamp, std::uint32_t, std::uint64_t>>>
      arrivals;
  std::vector<std::uint64_t> executed;  ///< per shard
  std::uint64_t posts = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t epochs = 0;
  int globals = 0;
  int commands = 0;

  bool operator==(const StressRun&) const = default;
};

StressRun run_stress(std::uint32_t workers) {
  constexpr std::uint32_t kShards = 4;
  constexpr Timestamp kStep = usec(40);  // also the lookahead horizon
  constexpr Timestamp kEnd = msec(200);
  ShardedScheduler ss(kShards, workers, kStep);
  StressRun out;
  out.arrivals.resize(kShards);
  // Written only from the posting shard's context.
  std::vector<std::uint64_t> sent(kShards, 0);

  // Posts from `src` at its current time to every other shard, arriving
  // `offset` past the step boundary two steps on (at least one horizon
  // away).
  auto fan_out = [&ss, &out, &sent](std::uint32_t src, Timestamp offset) {
    const Timestamp at = (ss.shard(src).now() / kStep + 2) * kStep + offset;
    for (std::uint32_t k = 1; k < kShards; ++k) {
      const std::uint32_t dst = (src + k) % kShards;
      const std::uint64_t seq = sent[src]++;
      ss.post_cross(dst, at, [&ss, &out, dst, src, seq] {
        out.arrivals[dst].emplace_back(ss.shard(dst).now(), src, seq);
      });
    }
  };
  // Each shard ticks at its own offset inside every step (shard 3 at +3 us,
  // shard 0 at +24 us), fanning out.
  std::function<void(std::uint32_t)> tick = [&](std::uint32_t s) {
    fan_out(s, 0);
    if (ss.shard(s).now() + kStep < kEnd) {
      ss.shard(s).schedule_after(kStep, [&tick, s] { tick(s); });
    }
  };
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ss.shard(s).schedule_at(usec(3 + 7 * (kShards - 1 - s)),
                            [&tick, s] { tick(s); });
  }
  // Global tasks every 3 ms, after the step's ticks, post from a shard
  // context too.
  std::function<void(Timestamp)> arm = [&](Timestamp at) {
    ss.schedule_global(at, [&, at] {
      ++out.globals;
      const auto src = static_cast<std::uint32_t>(out.globals % kShards);
      ShardedScheduler::ShardGuard guard(src);
      fan_out(src, usec(1));
      if (at + msec(3) < kEnd) arm(at + msec(3));
    });
  };
  arm(msec(3) + usec(31));

  // Advance in short calls with a for_each_worker generation between them.
  std::function<void(std::uint32_t)> cmd = [&out](std::uint32_t w) {
    if (w == 0) ++out.commands;
  };
  for (Timestamp t = msec(1); t <= kEnd + msec(1); t += msec(1)) {
    ss.run_until(t);
    ss.for_each_worker(cmd);
  }
  EXPECT_EQ(ss.pending(), 0u);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    out.executed.push_back(ss.shard(s).executed());
    out.posts += sent[s];
  }
  out.cross_posts = ss.cross_posts();
  out.epochs = ss.epochs();
  return out;
}

TEST(ShardedScheduler, BarrierStressKeepsInstallOrderAndCounts) {
  const StressRun base = run_stress(1);
  ASSERT_GT(base.epochs, 3000u);  // thousands of short windows
  EXPECT_EQ(base.cross_posts, base.posts);
  EXPECT_GT(base.globals, 50);
  EXPECT_EQ(base.commands, 201);
  for (const auto& log : base.arrivals) {
    ASSERT_FALSE(log.empty());
    // Same-instant arrivals run in (src shard, send order).
    for (std::size_t i = 1; i < log.size(); ++i) {
      const auto& [at0, src0, seq0] = log[i - 1];
      const auto& [at1, src1, seq1] = log[i];
      ASSERT_LE(at0, at1);
      if (at0 == at1) {
        ASSERT_TRUE(src0 < src1 || (src0 == src1 && seq0 < seq1))
            << "at " << at1 << ": src " << src0 << "#" << seq0
            << " before src " << src1 << "#" << seq1;
      }
    }
  }
  for (std::uint32_t workers : {2u, 3u, 4u}) {
    const StressRun r = run_stress(workers);
    EXPECT_EQ(r.cross_posts, base.cross_posts) << "workers=" << workers;
    EXPECT_EQ(r.executed, base.executed) << "workers=" << workers;
    EXPECT_EQ(r.epochs, base.epochs) << "workers=" << workers;
    EXPECT_EQ(r.arrivals, base.arrivals) << "workers=" << workers;
    EXPECT_TRUE(r == base) << "workers=" << workers;
  }
}

TEST(ShardedScheduler, RepeatedRunUntilAdvancesWindowsAcrossCalls) {
  // The experiment harness calls run_for repeatedly (warmup, measure, drain);
  // the epoch loop must resume cleanly with clocks aligned at each edge.
  ShardedScheduler ss(2, 2, kHorizon);
  Harness h(ss);
  h.max_id = 1 << 12;
  ss.shard(0).schedule_after(usec(100), [&h] { h.fire(0, 1); });
  ss.shard(1).schedule_after(usec(150), [&h] { h.fire(1, 2); });
  ss.run_until(msec(40));
  EXPECT_EQ(ss.shard(0).now(), msec(40));
  EXPECT_EQ(ss.shard(1).now(), msec(40));
  const std::uint64_t mid = ss.executed();
  EXPECT_GT(mid, 0u);
  ss.run_until(sec(20));
  EXPECT_GE(ss.executed(), mid);
  EXPECT_EQ(ss.pending(), 0u);
  EXPECT_GT(ss.epochs(), 0u);
}

}  // namespace
}  // namespace str::sim
