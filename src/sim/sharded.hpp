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
// Cross-shard sends never touch another shard's queue directly. Each
// (src, dst) pair has a double-buffered mailbox: a window appends to one
// buffer, which only src's worker touches during that window, and when the
// next window starts the worker that owns dst installs that buffer into
// dst's queue — source shard by source shard, each in send order — while
// the new window's posts fill the other buffer. A mailbox entry holds the
// event's closure and its DeliveryGate, and the install schedules both
// into dst's queue as one gated event: the closure built at the send is
// moved into the entry and from there into dst's event slot, and nothing
// wraps it. The destination queue
// orders by (time, insertion), so events arriving at the same instant run
// in (src shard, send order), and the entire virtual trajectory is
// independent of thread count and wall-clock interleaving. Running with 2
// workers or 8 produces the same simulation, event for event — and so does
// running with one.
//
// Cluster-scope activities that must observe every shard at once (watermark
// maintenance, fault-plan crashes and restarts) are *global tasks*: they
// bound the window edge, so no shard runs past them, and they execute
// single-threaded between windows while the workers are parked. Before each
// global task, and before run_until returns, the control thread installs
// the pending mailboxes itself and runs the fold hooks, so everything that
// runs between windows sees complete queues and complete metric totals.
//
// The worker count is only a speed setting: with one worker the calling
// thread executes every shard's window in turn, through the same mailboxes
// and barriers, so the trajectory is identical for 1 worker or 8.
//
// Between barriers a worker shares no written cache line with another: the
// shards, the mailbox buffers and the per-worker clocks are each aligned to
// their own lines, and the barrier is an epoch counter that waiters spin on
// briefly before parking (see ShardedScheduler's rendezvous members).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/scheduler.hpp"

namespace str::sim {

class ShardedScheduler {
 public:
  /// How long a waiter spins on the barrier before it parks. On a 4-core
  /// Xeon VM the control thread's work between two windows takes under
  /// 5 us, and a worker waits under 1 ms for a window's slowest shard in
  /// 99% of windows at 2 workers (docs/PERFORMANCE.md, "The barrier"), so
  /// the common hand-off never pays a futex wake-up; a maintenance tick's
  /// global tasks (a few ms) park the workers. Waiters park at once when
  /// the machine has fewer hardware threads than the lattice has workers.
  static constexpr std::uint64_t kSpinNs = 1'000'000;

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

  Scheduler& shard(std::uint32_t s) { return shards_[s].sched; }
  const Scheduler& shard(std::uint32_t s) const { return shards_[s].sched; }

  /// The scheduler of the shard the calling thread is currently executing
  /// (thread-local). Outside any worker context — on the control thread
  /// between windows, or before the first run — this is shard 0.
  Scheduler& current() { return shard(current_shard()); }
  const Scheduler& current() const { return shard(current_shard()); }

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

  /// Install the gate predicate of every shard's scheduler (see
  /// Scheduler::GatePredicate). It runs on the destination shard's worker,
  /// several workers at once, so it may only read state that global tasks
  /// write and write the current shard's own state.
  void set_gate_predicate(Scheduler::GatePredicate pred, void* ctx) {
    for (Shard& s : shards_) s.sched.set_gate_predicate(pred, ctx);
  }

  /// Register a fold hook: it moves per-shard metric lanes into their
  /// totals. Hooks run on the control thread with every worker parked —
  /// before each global task and before run_until returns — and on demand
  /// through fold().
  void add_fold_hook(UniqueFunction<void()> hook) {
    fold_hooks_.push_back(std::move(hook));
  }

  /// Run every fold hook now. Only legal while no window runs.
  void fold();

  /// Hand an event to another shard. Must be called from the shard context
  /// that produced it (a worker executing a window, or a global task under
  /// a ShardGuard). The event is buffered in the (current, dst) mailbox and
  /// installed into dst's queue, with its gate, when dst's next window
  /// starts; `at` must be at least the window edge, which the lookahead
  /// guarantees for any cross-region delivery.
  void post_cross(std::uint32_t dst_shard, Timestamp at,
                  UniqueFunction<void()>&& fn, DeliveryGate gate = {});

  /// Schedule a cluster-scope task: runs single-threaded between windows,
  /// with every shard quiesced at exactly `at`. Tasks at equal times run in
  /// schedule order.
  void schedule_global(Timestamp at, UniqueFunction<void()> fn);

  /// Run every shard up to and including virtual time `t`, then advance all
  /// shard clocks to `t`. The epoch loop runs on the calling thread, which
  /// doubles as worker 0.
  void run_until(Timestamp t);

  /// Earliest pending work anywhere: shard queues, uninstalled mailbox
  /// posts and global tasks. kTsInfinity when idle. O(shards^2): each
  /// mailbox buffer carries its earliest arrival.
  Timestamp next_event_time() const;

  /// Global virtual clock: only meaningful between run_until calls, when
  /// all shards agree. Inside protocol code use current().now().
  Timestamp now() const { return shards_[0].sched.now(); }

  /// Total events executed across all shards.
  std::uint64_t executed() const;

  /// Total pending events across all shards and mailboxes.
  std::size_t pending() const;

  /// Epoch barriers completed (observability).
  std::uint64_t epochs() const { return epochs_; }
  /// Events handed across shards through the mailboxes.
  std::uint64_t cross_posts() const;

  /// Run `fn(worker_index)` once on each worker thread (and with index 0 on
  /// the calling thread). Used by benchmarks to collect per-thread tallies
  /// such as allocation counts.
  void for_each_worker(const std::function<void(std::uint32_t)>& fn);

  /// Wall-clock split of the epoch loop, accumulated since construction
  /// (bench_core_speed prints it as the "lattice split"). Read between
  /// run_until calls.
  struct WorkerSplit {
    std::uint64_t shard_ns = 0;    ///< executing the worker's shard windows
    std::uint64_t install_ns = 0;  ///< installing mailboxes at window start
    std::uint64_t wait_ns = 0;     ///< parked or spinning at the barrier
  };
  struct LatticeSplit {
    std::vector<WorkerSplit> workers;  ///< index = worker (0 = control)
    std::uint64_t global_ns = 0;  ///< control thread: serial installs,
                                  ///< folds and global tasks
  };
  LatticeSplit lattice_split() const;

 private:
  struct MailboxEntry {
    Timestamp at = 0;
    DeliveryGate gate;
    UniqueFunction<void()> fn;
  };

  /// One buffer of a (src, dst) mailbox, on its own cache line: while src
  /// appends to one buffer, dst's worker drains the other.
  struct alignas(64) MailboxBuffer {
    std::vector<MailboxEntry> entries;  ///< in send order
    Timestamp earliest = kTsInfinity;   ///< min `at` over entries
  };
  struct Mailbox {
    MailboxBuffer buf[2];
  };

  /// A shard's queue and its install tally, on lines no other shard shares.
  struct alignas(64) Shard {
    Scheduler sched;
    std::uint64_t installed = 0;  ///< cross-shard posts installed here
  };

  struct alignas(64) WorkerClock {
    WorkerSplit split;
  };

  struct GlobalTask {
    Timestamp at = 0;
    std::uint64_t seq = 0;
    UniqueFunction<void()> fn;
  };

  void worker_main(std::uint32_t worker_index);
  /// Install mailbox buffer `side` of every source into `dst`, src-major and
  /// in send order, so events arriving at the same time run in (src shard,
  /// send order) order. Runs in dst's shard context.
  void install(std::uint32_t dst, std::uint32_t side);
  /// Install the buffer the last window (or global task) posted into, for
  /// every destination, on the calling (control) thread.
  void install_all_serially();
  Timestamp next_shard_event_time() const;
  /// Earliest arrival among posts not yet installed.
  Timestamp pending_post_time() const;
  /// Install and then execute the shards owned by `worker_index` up to
  /// (excluding) `end`.
  void run_owned_shards(std::uint32_t worker_index, Timestamp end);
  /// Open the next generation (window or command) for the workers, then
  /// run `own` on the calling thread and wait until every worker is done.
  template <typename Own>
  void run_generation(Own&& own);
  /// Block until `a` no longer holds `old`: spin up to spin_ns_, then park.
  std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                             std::uint32_t old,
                             std::atomic<std::uint32_t>& parked) const;

  static thread_local std::uint32_t tls_shard_;

  std::vector<Shard> shards_;
  std::uint32_t num_workers_ = 1;
  Timestamp horizon_ = 0;
  std::function<void()> on_worker_start_;

  /// mailboxes_[src * num_shards + dst]. Buffer `post_side_` takes the
  /// current window's posts (and those of global tasks and of the control
  /// thread between run_until calls); the other buffer is empty, or being
  /// installed by dst's worker at the start of the window.
  std::vector<Mailbox> mailboxes_;
  std::uint32_t post_side_ = 0;
  std::vector<UniqueFunction<void()>> fold_hooks_;
  std::vector<GlobalTask> global_tasks_;  ///< min-heap by (at, seq)
  std::uint64_t global_seq_ = 0;
  std::uint64_t epochs_ = 0;
  std::vector<WorkerClock> clocks_;  ///< per worker
  std::uint64_t global_ns_ = 0;

  // -- worker rendezvous (num_workers > 1 only) ------------------------------
  // The control thread publishes a generation (window edge or command) in
  // plain fields, then bumps epoch_ (release); workers spin on it (acquire),
  // run their shards and bump done_. Those two atomics give the barrier its
  // happens-before edges, so shard state needs no atomics: between barriers
  // each shard is touched by exactly one thread. A waiter spins for at most
  // spin_ns_ and then parks on the counter (C++20 atomic wait); the side
  // that bumps a counter notifies only when someone is parked, so the
  // common hand-off is a few cache-line transfers and no system call.
  std::vector<std::thread> workers_;
  std::uint64_t spin_ns_ = 0;
  Timestamp window_end_ = 0;  ///< exclusive edge of the open window
  bool quit_ = false;
  /// When nonnull during a command generation, workers run this instead of
  /// a window (for_each_worker).
  const std::function<void(std::uint32_t)>* worker_cmd_ = nullptr;
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  alignas(64) std::atomic<std::uint32_t> parked_workers_{0};
  alignas(64) std::atomic<std::uint32_t> parked_control_{0};
};

}  // namespace str::sim
