// Region-sharded discrete-event simulation with conservative lookahead
// (docs/PERFORMANCE.md, "Region-sharded lattice"). This is the only
// execution driver: every run, DES or real-time, executes this lattice.
//
// The event queue is split into one Scheduler per region shard, and the
// shards run on one or more worker threads. Safety comes from the WAN
// itself: no message crosses a region boundary faster than the minimum
// inter-region one-way latency H, so every shard may freely execute events
// in the window [W, W + H), where W is the global minimum pending-event
// time. No null messages, no rollback — just an epoch barrier at every
// window edge.
//
// Cross-shard sends never touch another shard's queue directly. The sending
// worker appends to a per-(src, dst) mailbox it exclusively owns during the
// window; at the barrier the control thread drains all mailboxes into the
// destination queues in a fixed order — source shard by source shard, each
// in send order. The destination queue orders by (time, insertion), so
// events arriving at the same instant run in (src shard, send order), and
// the entire virtual trajectory is independent of thread count and
// wall-clock interleaving. Running with 2 workers or 8 produces the same
// simulation, event for event — and so does running with one.
//
// Cluster-scope activities that must observe every shard at once (watermark
// maintenance, fault-plan crashes and restarts) are *global tasks*: they
// bound the window edge, so no shard runs past them, and they execute
// single-threaded between windows while the workers are parked.
//
// The worker count is only a speed setting: with one worker the calling
// thread executes every shard's window in turn, through the same mailboxes
// and barriers, so the trajectory is identical for 1 worker or 8.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/scheduler.hpp"

namespace str::sim {

/// Delivery gate of a network message: the destination node and its crash
/// epoch at send time. It rides next to the handler in a cross-shard
/// mailbox rather than inside a gating closure around it — such a closure
/// would hold a whole UniqueFunction, overflow the inline buffer and cost
/// one allocation per cross-shard hop.
struct DeliveryGate {
  NodeId to = kInvalidNode;
  std::uint64_t epoch = 0;
};

class ShardedScheduler {
 public:
  /// `num_shards` queues (one per region), executed by `num_workers` OS
  /// threads (clamped to num_shards; shard s is owned by worker
  /// s % num_workers, and the simulation is identical for every worker
  /// count). `horizon` is the conservative lookahead: the minimum
  /// cross-shard delivery latency (kTsInfinity when there is no other
  /// shard to deliver to). `on_worker_start` runs once on each spawned
  /// worker thread (thread-local setup such as the log clock).
  ShardedScheduler(std::uint32_t num_shards, std::uint32_t num_workers,
                   Timestamp horizon,
                   std::function<void()> on_worker_start = nullptr);
  ~ShardedScheduler();
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t num_workers() const { return num_workers_; }
  Timestamp horizon() const { return horizon_; }

  Scheduler& shard(std::uint32_t s) { return *shards_[s]; }
  const Scheduler& shard(std::uint32_t s) const { return *shards_[s]; }

  /// The scheduler of the shard the calling thread is currently executing
  /// (thread-local). Outside any worker context — on the control thread
  /// between windows, or before the first run — this is shard 0.
  Scheduler& current() { return *shards_[current_shard()]; }
  const Scheduler& current() const { return *shards_[current_shard()]; }

  /// Index of the shard the calling thread is executing (0 outside workers).
  static std::uint32_t current_shard() { return tls_shard_; }

  /// Scope guard installing a shard context on the calling thread. Used by
  /// the workers around window execution and by global tasks that enter
  /// node code (crash fan-outs schedule events and must land on the crashed
  /// node's shard at its clock).
  class ShardGuard {
   public:
    explicit ShardGuard(std::uint32_t s) : prev_(tls_shard_) {
      tls_shard_ = s;
    }
    ~ShardGuard() { tls_shard_ = prev_; }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    std::uint32_t prev_;
  };

  /// Installs one merged cross-shard post into destination shard `dst`.
  /// Runs on the control thread at a barrier, with every worker parked, so
  /// it may touch any shard's state. Without an installer the handler is
  /// scheduled on dst's queue as is and the gate is ignored.
  using Installer = UniqueFunction<void(std::uint32_t dst, Timestamp at,
                                        DeliveryGate gate,
                                        UniqueFunction<void()> fn)>;
  void set_installer(Installer installer) {
    installer_ = std::move(installer);
  }

  /// Hand an event to another shard. Must be called from the shard context
  /// that produced it (a worker executing a window, or a global task under
  /// a ShardGuard). The event is buffered in the (current, dst) mailbox and
  /// merged into dst's queue at the next barrier; `at` must be at least the
  /// window edge, which the lookahead guarantees for any cross-region
  /// delivery.
  void post_cross(std::uint32_t dst_shard, Timestamp at,
                  UniqueFunction<void()> fn, DeliveryGate gate = {});

  /// Schedule a cluster-scope task: runs single-threaded between windows,
  /// with every shard quiesced at exactly `at`. Tasks at equal times run in
  /// schedule order.
  void schedule_global(Timestamp at, UniqueFunction<void()> fn);

  /// Run every shard up to and including virtual time `t`, then advance all
  /// shard clocks to `t`. The epoch loop runs on the calling thread, which
  /// doubles as worker 0.
  void run_until(Timestamp t);

  /// Earliest pending work anywhere: shard queues, unmerged mailbox entries
  /// and global tasks. kTsInfinity when idle.
  Timestamp next_event_time() const;

  /// Global virtual clock: only meaningful between run_until calls, when
  /// all shards agree. Inside protocol code use current().now().
  Timestamp now() const { return shards_[0]->now(); }

  /// Total events executed across all shards.
  std::uint64_t executed() const;

  /// Total pending events across all shards and mailboxes.
  std::size_t pending() const;

  /// Epoch barriers completed (observability).
  std::uint64_t epochs() const { return epochs_; }
  /// Events handed across shards through the mailboxes.
  std::uint64_t cross_posts() const { return cross_posts_total_; }

  /// Run `fn(worker_index)` once on each worker thread (and with index 0 on
  /// the calling thread). Used by benchmarks to collect per-thread tallies
  /// such as allocation counts.
  void for_each_worker(const std::function<void(std::uint32_t)>& fn);

 private:
  struct MailboxEntry {
    Timestamp at = 0;
    DeliveryGate gate;
    UniqueFunction<void()> fn;
  };

  struct GlobalTask {
    Timestamp at = 0;
    std::uint64_t seq = 0;
    UniqueFunction<void()> fn;
  };

  void worker_main(std::uint32_t worker_index);
  /// Drain every mailbox into its destination queue so that events arriving
  /// at the same time run in (src shard, send order) order.
  void merge_mailboxes();
  Timestamp next_shard_event_time() const;
  /// Execute the shards owned by `worker_index` up to (excluding) `end`.
  void run_owned_shards(std::uint32_t worker_index, Timestamp end);

  static thread_local std::uint32_t tls_shard_;

  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::uint32_t num_workers_ = 1;
  Timestamp horizon_ = 0;
  std::function<void()> on_worker_start_;

  /// mailboxes_[src * num_shards + dst], in send order: owned exclusively
  /// by src's worker during a window, drained by the control thread at the
  /// barrier (cleared, never swapped out, so capacity carries over).
  std::vector<std::vector<MailboxEntry>> mailboxes_;
  Installer installer_;
  std::vector<GlobalTask> global_tasks_;  ///< min-heap by (at, seq)
  std::uint64_t global_seq_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_posts_total_ = 0;

  // -- worker rendezvous (num_workers > 1 only) ------------------------------
  // The control thread publishes a window edge under mu_ and bumps the
  // epoch generation; workers execute their shards and report back. The
  // mutex + condvars give the barrier its happens-before edges, so shard
  // state needs no atomics: between barriers each shard is touched by
  // exactly one thread. Blocking (not spinning) waits keep oversubscribed
  // machines — including single-core CI runners — from burning scheduler
  // quanta in busy loops.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< control -> workers: new window
  std::condition_variable done_cv_;   ///< workers -> control: window done
  std::uint64_t work_gen_ = 0;        ///< bumped per window (and per command)
  Timestamp window_end_ = 0;          ///< exclusive edge of the open window
  std::uint32_t done_count_ = 0;
  bool quit_ = false;
  /// When nonnull during a command generation, workers run this instead of
  /// a window (for_each_worker).
  const std::function<void(std::uint32_t)>* worker_cmd_ = nullptr;
};

}  // namespace str::sim
