#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"

namespace str::sim {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Heap order of global tasks: a min-heap by (at, seq).
constexpr auto kTaskAfter = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

}  // namespace

thread_local std::uint32_t ShardedScheduler::tls_shard_ = 0;

ShardedScheduler::ShardedScheduler(std::uint32_t num_shards,
                                   std::uint32_t num_workers,
                                   Timestamp horizon,
                                   std::function<void()> on_worker_start)
    : shards_(num_shards),
      horizon_(horizon),
      on_worker_start_(std::move(on_worker_start)) {
  STR_ASSERT(num_shards >= 1);
  STR_ASSERT_MSG(horizon_ > 0,
                 "conservative lookahead needs a positive horizon");
  num_workers_ = std::max(1u, std::min(num_workers, num_shards));
  mailboxes_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  clocks_.resize(num_workers_);
  // Spinning only pays when every worker has a hardware thread to spin on;
  // on a smaller machine a spinning waiter steals the quantum of the worker
  // it waits for.
  spin_ns_ = std::thread::hardware_concurrency() >= num_workers_ ? kSpinNs : 0;
  workers_.reserve(num_workers_ - 1);
  for (std::uint32_t w = 1; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedScheduler::~ShardedScheduler() {
  if (!workers_.empty()) {
    quit_ = true;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

void ShardedScheduler::fold() {
  for (UniqueFunction<void()>& hook : fold_hooks_) hook();
}

void ShardedScheduler::post_cross(std::uint32_t dst_shard, Timestamp at,
                                  UniqueFunction<void()>&& fn,
                                  DeliveryGate gate) {
  STR_ASSERT(dst_shard < num_shards());
  const std::uint32_t src = current_shard();
  STR_ASSERT_MSG(src != dst_shard, "post_cross to the current shard");
  MailboxBuffer& mb =
      mailboxes_[static_cast<std::size_t>(src) * num_shards() + dst_shard]
          .buf[post_side_];
  mb.entries.emplace_back(at, gate, std::move(fn));
  mb.earliest = std::min(mb.earliest, at);
}

void ShardedScheduler::schedule_global(Timestamp at,
                                       UniqueFunction<void()> fn) {
  global_tasks_.push_back({at, global_seq_++, std::move(fn)});
  std::push_heap(global_tasks_.begin(), global_tasks_.end(),
                 kTaskAfter);
}

Timestamp ShardedScheduler::next_shard_event_time() const {
  Timestamp w = kTsInfinity;
  for (const Shard& s : shards_) w = std::min(w, s.sched.next_event_time());
  return w;
}

Timestamp ShardedScheduler::pending_post_time() const {
  // Only the post side can hold entries: the other buffer was installed
  // when the last window started.
  Timestamp t = kTsInfinity;
  for (const Mailbox& mb : mailboxes_) {
    t = std::min(t, mb.buf[post_side_].earliest);
  }
  return t;
}

Timestamp ShardedScheduler::next_event_time() const {
  Timestamp t = std::min(next_shard_event_time(), pending_post_time());
  if (!global_tasks_.empty()) t = std::min(t, global_tasks_.front().at);
  return t;
}

void ShardedScheduler::install(std::uint32_t dst, std::uint32_t side) {
  const std::uint32_t n = num_shards();
  Shard& shard = shards_[dst];
  // Src-major, each mailbox in send order. No sort by arrival is needed:
  // the queue orders by (time, insertion), so only the relative order of
  // same-instant arrivals is up to us, and (src, send order) is a pure
  // function of the trajectory, never of worker interleaving.
  for (std::uint32_t src = 0; src < n; ++src) {
    MailboxBuffer& mb =
        mailboxes_[static_cast<std::size_t>(src) * n + dst].buf[side];
    if (mb.entries.empty()) continue;
    for (MailboxEntry& e : mb.entries) {
      STR_ASSERT_MSG(e.at >= shard.sched.now(),
                     "cross-shard arrival violates the lookahead horizon");
      shard.sched.schedule_gated(e.at, e.gate, std::move(e.fn));
    }
    shard.installed += mb.entries.size();
    mb.entries.clear();  // keeps the capacity for the next epoch
    mb.earliest = kTsInfinity;
  }
}

void ShardedScheduler::install_all_serially() {
  for (std::uint32_t dst = 0; dst < num_shards(); ++dst) {
    ShardGuard guard(dst);
    install(dst, post_side_);
  }
}

void ShardedScheduler::run_owned_shards(std::uint32_t worker_index,
                                        Timestamp end) {
  // The window's posts go to post_side_; the previous window's wait in the
  // other buffer and are installed before any owned shard runs.
  const std::uint32_t install_side = post_side_ ^ 1u;
  WorkerSplit& split = clocks_[worker_index].split;
  const std::uint64_t t0 = wall_ns();
  for (std::uint32_t s = worker_index; s < num_shards(); s += num_workers_) {
    ShardGuard guard(s);
    install(s, install_side);
  }
  const std::uint64_t t1 = wall_ns();
  for (std::uint32_t s = worker_index; s < num_shards(); s += num_workers_) {
    ShardGuard guard(s);
    shards_[s].sched.run_window(end);
  }
  const std::uint64_t t2 = wall_ns();
  split.install_ns += t1 - t0;
  split.shard_ns += t2 - t1;
}

std::uint32_t ShardedScheduler::await_change(
    const std::atomic<std::uint32_t>& a, std::uint32_t old,
    std::atomic<std::uint32_t>& parked) const {
  std::uint32_t v = a.load(std::memory_order_acquire);
  if (v != old) return v;
  if (spin_ns_ > 0) {
    const std::uint64_t deadline = wall_ns() + spin_ns_;
    for (std::uint32_t i = 1;; ++i) {
      cpu_relax();
      v = a.load(std::memory_order_acquire);
      if (v != old) return v;
      if (i % 64 == 0 && wall_ns() >= deadline) break;
    }
  }
  // Park. The seq_cst increment-then-load pairs with the notifier's
  // seq_cst bump-then-load of `parked`: either the notifier sees this
  // waiter and wakes it, or this load sees the new value.
  parked.fetch_add(1, std::memory_order_seq_cst);
  while ((v = a.load(std::memory_order_seq_cst)) == old) a.wait(old);
  parked.fetch_sub(1, std::memory_order_relaxed);
  return v;
}

void ShardedScheduler::worker_main(std::uint32_t worker_index) {
  if (on_worker_start_) on_worker_start_();
  WorkerSplit& split = clocks_[worker_index].split;
  std::uint32_t seen = 0;
  std::uint64_t idle_since = wall_ns();
  for (;;) {
    seen = await_change(epoch_, seen, parked_workers_);
    split.wait_ns += wall_ns() - idle_since;
    if (quit_) return;
    if (worker_cmd_ != nullptr) {
      (*worker_cmd_)(worker_index);
    } else {
      run_owned_shards(worker_index, window_end_);
    }
    idle_since = wall_ns();
    if (done_.fetch_add(1, std::memory_order_seq_cst) + 1 ==
            num_workers_ - 1 &&
        parked_control_.load(std::memory_order_seq_cst) != 0) {
      done_.notify_all();
    }
  }
}

template <typename Own>
void ShardedScheduler::run_generation(Own&& own) {
  // Every worker reported the previous generation before this one opens, so
  // nobody touches done_ until it sees the new epoch.
  done_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_workers_.load(std::memory_order_seq_cst) != 0) {
    epoch_.notify_all();
  }
  own();
  const std::uint64_t t0 = wall_ns();
  const std::uint32_t all = num_workers_ - 1;
  for (std::uint32_t v = done_.load(std::memory_order_acquire); v != all;) {
    v = await_change(done_, v, parked_control_);
  }
  clocks_[0].split.wait_ns += wall_ns() - t0;
}

void ShardedScheduler::run_until(Timestamp t) {
  for (;;) {
    const Timestamp w =
        std::min(next_shard_event_time(), pending_post_time());
    const Timestamp g = global_tasks_.empty() ? kTsInfinity
                                              : global_tasks_.front().at;
    const Timestamp next = std::min(w, g);
    if (next > t) break;
    if (g <= w) {
      // All shards have drained below g: install what the last window
      // posted, advance them to the task time and run every task due at g
      // single-threaded, in schedule order. Tasks see a fully quiesced
      // cluster with folded metrics — and bound the next window, so no
      // shard ever runs past a crash or a maintenance tick.
      const std::uint64_t t0 = wall_ns();
      install_all_serially();
      for (Shard& s : shards_) s.sched.advance_to(g);
      while (!global_tasks_.empty() && global_tasks_.front().at == g) {
        std::pop_heap(global_tasks_.begin(), global_tasks_.end(),
                      kTaskAfter);
        GlobalTask task = std::move(global_tasks_.back());
        global_tasks_.pop_back();
        // Each task sees every sink the previous one fed (a crash's
        // in-doubt commit, say, before the self-tuner reads the meter).
        fold();
        task.fn();
      }
      global_ns_ += wall_ns() - t0;
      continue;
    }
    // Conservative window: every shard may run to (w + horizon) because no
    // cross-shard send from inside the window can arrive before it; global
    // tasks and the run edge clamp it. end is exclusive; the +1 lets events
    // at exactly t execute, matching run_until's inclusive contract. (w + H
    // saturates: a lone shard has an infinite horizon.)
    const Timestamp lookahead =
        horizon_ > kTsInfinity - w ? kTsInfinity : w + horizon_;
    const Timestamp end = std::min({lookahead, g, t + 1});
    // The new window posts into the other buffer; the one just filled is
    // installed by each destination's worker before it runs.
    post_side_ ^= 1u;
    if (num_workers_ > 1) {
      window_end_ = end;
      worker_cmd_ = nullptr;
      run_generation([this, end] { run_owned_shards(0, end); });
    } else {
      run_owned_shards(0, end);
    }
    ++epochs_;
  }
  const std::uint64_t t0 = wall_ns();
  install_all_serially();
  fold();
  global_ns_ += wall_ns() - t0;
  for (Shard& s : shards_) s.sched.advance_to(t);
}

std::uint64_t ShardedScheduler::executed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.sched.executed();
  return n;
}

std::uint64_t ShardedScheduler::cross_posts() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.installed;
  return n;
}

std::size_t ShardedScheduler::pending() const {
  std::size_t n = global_tasks_.size();
  for (const Shard& s : shards_) n += s.sched.pending();
  for (const Mailbox& mb : mailboxes_) {
    n += mb.buf[0].entries.size() + mb.buf[1].entries.size();
  }
  return n;
}

void ShardedScheduler::for_each_worker(
    const std::function<void(std::uint32_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  worker_cmd_ = &fn;
  run_generation([&fn] { fn(0); });
  worker_cmd_ = nullptr;
}

ShardedScheduler::LatticeSplit ShardedScheduler::lattice_split() const {
  LatticeSplit out;
  out.workers.reserve(clocks_.size());
  for (const WorkerClock& c : clocks_) out.workers.push_back(c.split);
  out.global_ns = global_ns_;
  return out;
}

}  // namespace str::sim
