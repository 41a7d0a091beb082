#include "tuning/self_tuner.hpp"

#include "tuning/cusum.hpp"

#include <cmath>
#include <coroutine>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace str::tuning {

namespace {

/// `co_await GlobalSleep{sharded, d}` resumes `d` from now as a global task,
/// so the code after it runs with every shard stopped at one instant: the
/// commit total it reads and the speculation switch it flips are the same
/// for every worker count. A global task at t runs before any event at t,
/// so the difference of the totals read at two ticks counts the commits of
/// [first tick, second tick).
struct GlobalSleep {
  /// The pending task owns the suspended frame: a task dropped unrun (the
  /// cluster torn down while the tuner sleeps) destroys it.
  struct Resume {
    std::coroutine_handle<> h;
    explicit Resume(std::coroutine_handle<> handle) : h(handle) {}
    Resume(Resume&& other) noexcept : h(std::exchange(other.h, {})) {}
    Resume& operator=(Resume&&) = delete;
    ~Resume() {
      if (h) h.destroy();
    }
    void operator()() { std::exchange(h, {}).resume(); }
  };

  sim::ShardedScheduler& sharded;
  Timestamp delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sharded.schedule_global(sharded.now() + delay, Resume(h));
  }
  void await_resume() const noexcept {}
};

}  // namespace

SelfTuner::SelfTuner(protocol::Cluster& cluster, SelfTunerConfig config)
    : cluster_(cluster), config_(config) {}

void SelfTuner::start() {
  STR_ASSERT_MSG(!started_, "SelfTuner started twice");
  started_ = true;
  run();
}

double SelfTuner::measure_commits_per_sec(Timestamp window_start,
                                          std::uint64_t commits_at_start) const {
  const Timestamp now = cluster_.now();
  const auto commits = cluster_.lifetime_commits() - commits_at_start;
  const double span = static_cast<double>(now - window_start) / 1e6;
  return span <= 0.0 ? 0.0 : static_cast<double>(commits) / span;
}

sim::Fiber SelfTuner::run() {
  auto& lattice = cluster_.sharded();
  co_await GlobalSleep{lattice, config_.initial_delay};

  for (;;) {
    // Trial phase A: speculation on.
    cluster_.set_speculation_enabled(true);
    co_await GlobalSleep{lattice, config_.settle};
    Timestamp t0 = cluster_.now();
    std::uint64_t c0 = cluster_.lifetime_commits();
    co_await GlobalSleep{lattice, config_.interval};
    const double on_rate = measure_commits_per_sec(t0, c0);

    // Trial phase B: speculation off.
    cluster_.set_speculation_enabled(false);
    co_await GlobalSleep{lattice, config_.settle};
    t0 = cluster_.now();
    c0 = cluster_.lifetime_commits();
    co_await GlobalSleep{lattice, config_.interval};
    const double off_rate = measure_commits_per_sec(t0, c0);

    speculation_chosen_ = on_rate >= off_rate;
    cluster_.set_speculation_enabled(speculation_chosen_);
    ++trials_;
    if (!decided_) {
      decided_ = true;
      decided_at_ = cluster_.now();
    }
    rate_at_decision_ = speculation_chosen_ ? on_rate : off_rate;
    STR_INFO("self-tuner: on=%.1f tps off=%.1f tps -> speculation %s",
             on_rate, off_rate, speculation_chosen_ ? "ON" : "OFF");

    if (config_.retune_threshold <= 0.0) co_return;

    // Change detection via CUSUM (the §5.5 extension): sample the commit
    // rate of every monitoring interval; a statistically meaningful shift
    // re-triggers the on/off trial.
    CusumDetector::Config dcfg;
    dcfg.drift_frac = config_.retune_threshold / 2.0;
    dcfg.threshold_frac = config_.retune_threshold;
    CusumDetector detector(dcfg);
    for (;;) {
      t0 = cluster_.now();
      c0 = cluster_.lifetime_commits();
      co_await GlobalSleep{lattice, config_.monitor_interval};
      if (detector.add_sample(measure_commits_per_sec(t0, c0))) {
        break;  // re-trial
      }
    }
  }
}

}  // namespace str::tuning
