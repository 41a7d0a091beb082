// Self-tuning controller (§5.5).
//
// A centralized feedback loop: measure cluster throughput with speculative
// reads enabled for one interval, disabled for the next, then lock in the
// better configuration. The measurement source is the cluster's lifetime
// commit total (never cut at the warmup), read at the controller's ticks, so
// the controller is entirely black-box with respect to the data store and
// the workload — exactly the paper's design. Optionally, a CUSUM-style load
// change detector re-triggers the trial when the input load shifts (the
// extension §5.5 sketches).
#pragma once

#include "common/types.hpp"
#include "protocol/cluster.hpp"
#include "sim/coro.hpp"

namespace str::tuning {

struct SelfTunerConfig {
  /// Measurement interval per configuration (the paper samples at 10s).
  Timestamp interval = sec(10);
  /// Settle time after flipping the configuration before measuring, so
  /// in-flight transactions from the previous configuration drain and do
  /// not contaminate the sample.
  Timestamp settle = sec(2);
  /// Settle time before the first trial (lets the system warm up).
  Timestamp initial_delay = sec(2);
  /// Re-run the trial whenever the commit-rate CUSUM drifts by this factor
  /// from the rate observed at decision time (0 disables re-tuning).
  double retune_threshold = 0.0;
  /// How often the change detector samples when retuning is enabled.
  Timestamp monitor_interval = sec(5);
};

class SelfTuner {
 public:
  SelfTuner(protocol::Cluster& cluster, SelfTunerConfig config);

  /// Spawn the controller fiber. Call once, before or during warmup.
  void start();

  bool decided() const { return decided_; }
  bool speculation_chosen() const { return speculation_chosen_; }
  std::uint32_t trials_run() const { return trials_; }

  /// Virtual time at which the first decision was made (0 if undecided).
  Timestamp decided_at() const { return decided_at_; }

 private:
  sim::Fiber run();

  /// One on/off trial; sets the better configuration and returns it.
  struct TrialResult {
    double on_rate = 0.0;
    double off_rate = 0.0;
  };

  double measure_commits_per_sec(Timestamp window_start,
                                 std::uint64_t commits_at_start) const;

  protocol::Cluster& cluster_;
  SelfTunerConfig config_;
  bool started_ = false;
  bool decided_ = false;
  bool speculation_chosen_ = true;
  Timestamp decided_at_ = 0;
  std::uint32_t trials_ = 0;
  double rate_at_decision_ = 0.0;
};

}  // namespace str::tuning
