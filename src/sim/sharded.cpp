#include "sim/sharded.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace str::sim {

thread_local std::uint32_t ShardedScheduler::tls_shard_ = 0;

ShardedScheduler::ShardedScheduler(std::uint32_t num_shards,
                                   std::uint32_t num_workers,
                                   Timestamp horizon,
                                   std::function<void()> on_worker_start)
    : horizon_(horizon), on_worker_start_(std::move(on_worker_start)) {
  STR_ASSERT(num_shards >= 1);
  STR_ASSERT_MSG(horizon_ > 0,
                 "conservative lookahead needs a positive horizon");
  shards_.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Scheduler>());
  }
  num_workers_ = std::max(1u, std::min(num_workers, num_shards));
  mailboxes_.resize(static_cast<std::size_t>(num_shards) * num_shards);
  workers_.reserve(num_workers_ - 1);
  for (std::uint32_t w = 1; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedScheduler::~ShardedScheduler() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

void ShardedScheduler::post_cross(std::uint32_t dst_shard, Timestamp at,
                                  UniqueFunction<void()> fn,
                                  DeliveryGate gate) {
  STR_ASSERT(dst_shard < num_shards());
  const std::uint32_t src = current_shard();
  STR_ASSERT_MSG(src != dst_shard, "post_cross to the current shard");
  mailboxes_[static_cast<std::size_t>(src) * num_shards() + dst_shard]
      .push_back({at, gate, std::move(fn)});
}

void ShardedScheduler::schedule_global(Timestamp at,
                                       UniqueFunction<void()> fn) {
  global_tasks_.push_back({at, global_seq_++, std::move(fn)});
  std::push_heap(global_tasks_.begin(), global_tasks_.end(),
                 [](const GlobalTask& a, const GlobalTask& b) {
                   return a.at != b.at ? a.at > b.at : a.seq > b.seq;
                 });
}

Timestamp ShardedScheduler::next_shard_event_time() const {
  Timestamp w = kTsInfinity;
  for (const auto& s : shards_) w = std::min(w, s->next_event_time());
  return w;
}

Timestamp ShardedScheduler::next_event_time() const {
  Timestamp t = next_shard_event_time();
  if (!global_tasks_.empty()) t = std::min(t, global_tasks_.front().at);
  for (const auto& mb : mailboxes_) {
    for (const MailboxEntry& e : mb) t = std::min(t, e.at);
  }
  return t;
}

void ShardedScheduler::merge_mailboxes() {
  const std::uint32_t n = num_shards();
  for (std::uint32_t dst = 0; dst < n; ++dst) {
    Scheduler& q = *shards_[dst];
    // Install src-major, each mailbox in send order. No sort by arrival is
    // needed: the queue orders by (time, insertion), so only the relative
    // order of same-instant arrivals is up to us, and (src, send order) is
    // a pure function of the trajectory, never of worker interleaving.
    for (std::uint32_t src = 0; src < n; ++src) {
      auto& mb = mailboxes_[static_cast<std::size_t>(src) * n + dst];
      for (MailboxEntry& e : mb) {
        STR_ASSERT_MSG(e.at >= q.now(),
                       "cross-shard arrival violates the lookahead horizon");
        if (installer_) {
          installer_(dst, e.at, e.gate, std::move(e.fn));
        } else {
          q.schedule_at(e.at, std::move(e.fn));
        }
      }
      cross_posts_total_ += mb.size();
      mb.clear();  // keeps the capacity for the next epoch
    }
  }
}

void ShardedScheduler::run_owned_shards(std::uint32_t worker_index,
                                        Timestamp end) {
  for (std::uint32_t s = worker_index; s < num_shards(); s += num_workers_) {
    ShardGuard guard(s);
    shards_[s]->run_window(end);
  }
}

void ShardedScheduler::worker_main(std::uint32_t worker_index) {
  if (on_worker_start_) on_worker_start_();
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::uint32_t)>* cmd = nullptr;
    Timestamp end = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return quit_ || work_gen_ != seen; });
      if (quit_) return;
      seen = work_gen_;
      cmd = worker_cmd_;
      end = window_end_;
    }
    if (cmd != nullptr) {
      (*cmd)(worker_index);
    } else {
      run_owned_shards(worker_index, end);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_count_;
    }
    done_cv_.notify_one();
  }
}

void ShardedScheduler::run_until(Timestamp t) {
  merge_mailboxes();
  for (;;) {
    const Timestamp w = next_shard_event_time();
    const Timestamp g = global_tasks_.empty() ? kTsInfinity
                                              : global_tasks_.front().at;
    const Timestamp next = std::min(w, g);
    if (next > t) break;
    if (g <= w) {
      // All shards have drained below g: advance them to the task time and
      // run every task due at g single-threaded, in schedule order. Tasks
      // see a fully quiesced cluster — and bound the next window, so no
      // shard ever runs past a crash or a maintenance tick.
      for (auto& s : shards_) s->advance_to(g);
      while (!global_tasks_.empty() && global_tasks_.front().at == g) {
        std::pop_heap(global_tasks_.begin(), global_tasks_.end(),
                      [](const GlobalTask& a, const GlobalTask& b) {
                        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
                      });
        GlobalTask task = std::move(global_tasks_.back());
        global_tasks_.pop_back();
        task.fn();
      }
      merge_mailboxes();
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
    if (num_workers_ > 1) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        window_end_ = end;
        worker_cmd_ = nullptr;
        done_count_ = 0;
        ++work_gen_;
      }
      work_cv_.notify_all();
      run_owned_shards(0, end);
      {
        std::unique_lock<std::mutex> lk(mu_);
        ++done_count_;
        done_cv_.wait(lk, [&] { return done_count_ == num_workers_; });
      }
    } else {
      run_owned_shards(0, end);
    }
    ++epochs_;
    merge_mailboxes();
  }
  for (auto& s : shards_) s->advance_to(t);
}

std::uint64_t ShardedScheduler::executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->executed();
  return n;
}

std::size_t ShardedScheduler::pending() const {
  std::size_t n = global_tasks_.size();
  for (const auto& s : shards_) n += s->pending();
  for (const auto& mb : mailboxes_) n += mb.size();
  return n;
}

void ShardedScheduler::for_each_worker(
    const std::function<void(std::uint32_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    worker_cmd_ = &fn;
    done_count_ = 0;
    ++work_gen_;
  }
  work_cv_.notify_all();
  fn(0);
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++done_count_;
    done_cv_.wait(lk, [&] { return done_count_ == num_workers_; });
    worker_cmd_ = nullptr;
  }
}

}  // namespace str::sim
