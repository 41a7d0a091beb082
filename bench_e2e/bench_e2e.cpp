// bench_e2e — one pass of one end-to-end workload per process.
//
// run_benchmark.py (next to this file) is the one command; it launches this
// binary once per pass and folds the passes into the published metrics. A
// pass builds the cluster, loads the workload, starts a closed-loop client
// pool, runs warm-up / measurement window / drain, checks the outcome and
// prints one JSON object (the last line of stdout) with everything it saw.
//
// Every layer is timed from OUTSIDE, by wrapping public entry points: the
// Cluster constructor, Workload::load, ClientPool::start_all, run_for (warm-
// up, window and drain separately), SpsiChecker::check_all and merged_obs.
// Two bench-side decorators see inside the hot path without touching src/:
// BenchWorkload wraps the workload (final latency of every committed logical
// transaction, and next() timing on traced passes) and, on traced passes, a
// replacement Network frame handler times wire::dispatch_frame. Allocations
// are counted by the interposed operator new below.
//
// Pass kinds:
//   verified  history recorded, SPSI checked (DES: the full configuration;
//             TCP: a fixed budget of transactions, because the checker is
//             quadratic in writes per hot key)
//   timed     no history — the pass whose wall-clock numbers are published
//   traced    a timed pass plus the obs::Tracer over a 1 s slice of the
//             window, per-call histograms and critical-path analysis
//
// Usage: bench_e2e --workload NAME --seed N --pass verified|timed|traced
//                  [--quick]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "obs/analysis.hpp"
#include "protocol/cluster.hpp"
#include "verify/history.hpp"
#include "verify/spsi_checker.hpp"
#include "wire/dispatch.hpp"
#include "wire/messages.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

// ---------------------------------------------------------------------------
// Interposed allocation counter (as in bench/bench_core_speed.cpp), with one
// cache-line slot per thread so worker and transport-loop threads never
// contend on a shared counter. A thread claims its slot on its first
// allocation; slots are never recycled (a pass starts a handful of threads).
namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr std::uint32_t kAllocSlots = 256;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::uint32_t> g_next_alloc_slot{0};
thread_local AllocSlot* t_alloc_slot = nullptr;

void count_alloc(std::size_t size) {
  if (t_alloc_slot == nullptr) {
    const std::uint32_t i =
        g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed);
    // Threads past the last slot share it; the atomics keep that correct.
    t_alloc_slot = &g_alloc_slots[std::min(i, kAllocSlots - 1)];
  }
  t_alloc_slot->allocs.fetch_add(1, std::memory_order_relaxed);
  t_alloc_slot->bytes.fetch_add(size, std::memory_order_relaxed);
}

struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

AllocTotals alloc_totals() {
  AllocTotals t;
  const std::uint32_t used =
      std::min(g_next_alloc_slot.load(std::memory_order_relaxed), kAllocSlots);
  for (std::uint32_t i = 0; i < used; ++i) {
    t.allocs += g_alloc_slots[i].allocs.load(std::memory_order_relaxed);
    t.bytes += g_alloc_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return t;
}

void* counted_alloc(std::size_t size) {
  count_alloc(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t size, std::size_t align) {
  count_alloc(size);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// The nothrow forms (std::stable_sort's buffer uses them) must pair with the
// free() above too; sanitizers replace any form left out.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

using namespace str;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Histogram of nanosecond durations that worker threads of a sharded run
/// can record into. Read only after the run.
class LockedHist {
 public:
  void record(std::uint64_t ns) {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.record(ns);
  }
  const Histogram& hist() const { return hist_; }

 private:
  std::mutex mu_;
  Histogram hist_;
};

// ---------------------------------------------------------------------------
// Bench-side workload decorator.

/// Wraps one logical transaction so the decorator can see its first
/// activation: the client calls execute() for every attempt, the first call
/// at exactly the activation instant the coordinator records.
class TimedProgram final : public workload::TxnProgram {
 public:
  /// `now_ms` belongs to the BenchWorkload, which outlives every client.
  TimedProgram(std::shared_ptr<workload::TxnProgram> inner,
               const std::function<double()>& now_ms)
      : inner_(std::move(inner)), now_ms_(now_ms) {}

  int type() const override { return inner_->type(); }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<workload::TxnProgram> self) override {
    (void)self;
    if (first_activation_ms_ < 0.0) first_activation_ms_ = now_ms_();
    // The inner body anchors its own program in its coroutine frame.
    return inner_->execute(tx, inner_);
  }

  const workload::TxnProgram& inner() const { return *inner_; }
  double first_activation_ms() const { return first_activation_ms_; }

 private:
  std::shared_ptr<workload::TxnProgram> inner_;
  const std::function<double()>& now_ms_;
  double first_activation_ms_ = -1.0;
};

/// Client-side view of the workload. Records the final latency (first
/// activation -> commit, in ms) of every logical transaction that finishes
/// inside a measurement slice — before the drain every finish is a commit,
/// since clients retry aborts. Optionally times next() and stops the client
/// pool after a fixed budget of transactions.
class BenchWorkload final : public workload::Workload {
 public:
  BenchWorkload(std::unique_ptr<workload::Workload> inner,
                std::function<double()> now_ms)
      : inner_(std::move(inner)), now_ms_(std::move(now_ms)) {}

  void load(protocol::Cluster& cluster) override { inner_->load(cluster); }

  std::shared_ptr<workload::TxnProgram> next(NodeId node, Rng& rng) override {
    std::shared_ptr<workload::TxnProgram> program;
    if (next_hist_ != nullptr) {
      const auto t0 = Clock::now();
      program = inner_->next(node, rng);
      next_hist_->record(ns_between(t0, Clock::now()));
    } else {
      program = inner_->next(node, rng);
    }
    if (budget_ != 0 && ++issued_ == budget_) on_budget_();
    return std::make_shared<TimedProgram>(std::move(program), now_ms_);
  }

  Timestamp think_time(const workload::TxnProgram& program,
                       Rng& rng) override {
    const auto& timed = static_cast<const TimedProgram&>(program);
    const int s = slice_.load(std::memory_order_relaxed);
    if (s >= 0) {
      const double latency = now_ms_() - timed.first_activation_ms();
      std::lock_guard<std::mutex> lk(mu_);
      samples_[static_cast<std::size_t>(s)].push_back(latency);
    }
    return inner_->think_time(timed.inner(), rng);
  }

  /// Attribute finishing transactions to slice `s` (-1: outside the window).
  /// Called between run_for calls, while no shard is executing.
  void set_slice(int s, std::size_t slices) {
    if (samples_.size() < slices) samples_.resize(slices);
    slice_.store(s);
  }
  void time_next(LockedHist* hist) { next_hist_ = hist; }
  /// Call `fn` (on the protocol thread) once `budget` programs were issued.
  void set_budget(std::uint64_t budget, std::function<void()> fn) {
    budget_ = budget;
    on_budget_ = std::move(fn);
  }
  std::vector<std::vector<double>>& samples_ms() { return samples_; }

 private:
  std::unique_ptr<workload::Workload> inner_;
  std::function<double()> now_ms_;
  std::atomic<int> slice_{-1};
  LockedHist* next_hist_ = nullptr;
  std::uint64_t budget_ = 0;
  std::uint64_t issued_ = 0;
  std::function<void()> on_budget_;
  std::mutex mu_;  ///< sharded runs finish transactions on worker threads
  std::vector<std::vector<double>> samples_;  ///< per window slice
};

// ---------------------------------------------------------------------------
// Workload definitions.

struct WorkloadPlan {
  protocol::Cluster::Config cluster;
  std::function<std::unique_ptr<workload::Workload>(protocol::Cluster&)> make;
  std::uint32_t clients = 0;
  Timestamp warmup = 0;
  /// The window is `slices` consecutive run_for(slice) calls; wall-clock
  /// metrics are medians over slices, which rejects bursts of host noise.
  Timestamp slice = sec(1);
  std::uint32_t slices = 10;
  /// Upper bound on the drain, which ends as soon as the cluster quiesces:
  /// TPC-C dependency chains under the decision quorum can outlast 3 s.
  Timestamp drain = sec(10);
  /// Transactions in a verified pass over a real transport (0 = DES: the
  /// verified pass runs the same window as the timed passes).
  std::uint64_t verify_budget = 0;
  bool tpcc = false;
};

bool make_plan(const std::string& name, std::uint64_t seed, bool quick,
               WorkloadPlan& p) {
  protocol::Cluster::Config& c = p.cluster;
  c.seed = seed;
  c.protocol = protocol::ProtocolConfig::str();
  if (quick) p.slices = 2;
  if (name == "synth-a" || name == "synth-b-sharded") {
    const auto wcfg = name == "synth-a" ? workload::SyntheticConfig::synth_a()
                                        : workload::SyntheticConfig::synth_b();
    p.make = [wcfg](protocol::Cluster& cl) {
      return std::make_unique<workload::SyntheticWorkload>(cl, wcfg);
    };
    c.threads = name == "synth-a" ? 1 : 2;
    p.clients = 180;
    p.warmup = sec(3);
    return true;
  }
  if (name == "tpcc-durable") {
    p.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::TpccWorkload>(
          cl, workload::TpccConfig::mix_a());
    };
    c.wire_codec = true;
    auto& d = c.protocol.durability;
    d.wal_enabled = true;
    d.fsync_latency = msec(2);
    d.group_commit_batch = 8;
    d.decision_quorum = 2;
    p.clients = quick ? 300 : 1200;
    p.warmup = sec(5);
    p.tpcc = true;
    return true;
  }
  if (name == "synth-a-tcp") {
    p.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::SyntheticWorkload>(
          cl, workload::SyntheticConfig::synth_a());
    };
    c.num_nodes = 3;
    c.replication_factor = 3;
    c.topology = net::Topology::symmetric(3, msec(100));
    c.transport = net::TransportKind::kTcp;
    p.clients = 24;
    p.warmup = quick ? msec(300) : sec(1);
    // 4 s, so the traced second stays a quarter of a traced pass's window.
    p.slice = msec(100);
    p.slices = quick ? 2 : 40;
    p.drain = msec(500);
    p.verify_budget = quick ? 300 : 3000;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pass execution.

enum class PassKind { kVerified, kTimed, kTraced };

/// Traced passes time one frame dispatch in kDispatchSample and decode one
/// frame in kDecodeSample a second time (a multiple of kDispatchSample).
constexpr std::uint64_t kDispatchSample = 4;
constexpr std::uint64_t kDecodeSample = 16;

/// Consecutive wall-clock laps from process start: together they cover the
/// pass's whole in-process lifetime.
class Laps {
 public:
  explicit Laps(Clock::time_point origin) : last_(origin) {}
  double lap(const char* name) {
    const auto now = Clock::now();
    const double s = seconds_between(last_, now);
    laps_.emplace_back(name, s);
    last_ = now;
    return s;
  }
  const std::vector<std::pair<const char*, double>>& laps() const {
    return laps_;
  }

 private:
  Clock::time_point last_;
  std::vector<std::pair<const char*, double>> laps_;
};

/// Minimal JSON writer for the pass report: nested objects of numbers,
/// strings, booleans and number arrays.
class JsonOut {
 public:
  void open(const char* key = nullptr) {
    sep();
    if (key != nullptr) out_ += quote(key) + ":";
    out_ += "{";
    first_ = true;
  }
  void close() {
    out_ += "}";
    first_ = false;
  }
  void num(const std::string& key, double v) {
    sep();
    out_ += quote(key) + ":" + fmt(v);
  }
  void nums(const char* key, const std::vector<double>& vs) {
    sep();
    out_ += quote(key) + ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) out_ += ",";
      out_ += fmt(vs[i]);
    }
    out_ += "]";
  }
  void uint(const std::string& key, std::uint64_t v) {
    sep();
    out_ += quote(key) + ":" + std::to_string(v);
  }
  void boolean(const char* key, bool v) {
    sep();
    out_ += quote(key) + ":" + (v ? "true" : "false");
  }
  void str(const char* key, const std::string& v) {
    sep();
    out_ += quote(key) + ":" + quote(v);
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ",";
    first_ = false;
  }
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return q + "\"";
  }
  std::string out_;
  bool first_ = true;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_or_zero(const obs::Registry& r, const std::string& name) {
  const obs::Counter* c = r.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t sum_counters(const obs::Registry& r, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, c] : r.counters()) {
    if (name.rfind(prefix, 0) == 0) total += c.value();
  }
  return total;
}

/// Window counters from the merged registry: per-message-type wire counters
/// are folded into totals, everything else is reported by name.
void report_registry(const obs::Registry& merged, JsonOut& out) {
  out.open("counters");
  for (const auto& [name, c] : merged.counters()) {
    if (name.rfind("wire.", 0) == 0) continue;
    out.uint(name, c.value());
  }
  out.uint("wire.msgs", sum_counters(merged, "wire.msgs."));
  out.uint("wire.bytes", sum_counters(merged, "wire.bytes."));
  out.uint("wire.resent", sum_counters(merged, "wire.resent."));
  out.close();
  out.open("phases");
  // local_cert and lock_hold are left out: identically 0 under STR.
  for (const char* phase :
       {"gate_stall", "read_block", "wan_prepare", "dep_wait"}) {
    const obs::Timer* t = merged.find_timer(std::string("phase.") + phase);
    out.open(phase);
    out.uint("count", t == nullptr ? 0 : t->count());
    out.num("mean_us", t == nullptr ? 0.0 : t->hist().mean());
    out.uint("p99_us", t == nullptr ? 0 : t->hist().p99());
    out.close();
  }
  out.close();
}

/// Critical-path shares of the traced slice, appended under "cp". Returns
/// the number of paths whose edges do not exactly cover begin -> commit.
std::size_t report_critical_paths(const obs::Tracer& tracer, JsonOut& out) {
  const std::vector<obs::CriticalPath> paths =
      obs::critical_paths(tracer.snapshot());
  const std::vector<std::string> bad = obs::check_critical_paths(paths);
  const obs::PathAggregate agg = obs::aggregate(paths);
  out.open("cp");
  out.uint("paths", agg.committed);
  out.uint("coverage_violations", bad.size());
  for (std::size_t c = 0; c < obs::kNumEdgeClasses; ++c) {
    const double share =
        agg.total_latency_us == 0
            ? 0.0
            : static_cast<double>(agg.per_class[c].total_us) /
                  static_cast<double>(agg.total_latency_us);
    out.num(obs::to_string(static_cast<obs::EdgeClass>(c)), share);
  }
  out.close();
  return bad.size();
}

void report_hist(const char* key, const LockedHist& h, JsonOut& out) {
  out.open(key);
  out.uint("count", h.hist().count());
  out.num("sum", h.hist().mean() * static_cast<double>(h.hist().count()));
  out.uint("p50", h.hist().p50());
  out.uint("p99", h.hist().p99());
  out.close();
}

/// Run in slice steps until the cluster quiesces or plan.drain has passed;
/// the caller's quiesce check then reports whatever is left.
void drain(protocol::Cluster& cluster, const WorkloadPlan& plan) {
  for (Timestamp t = 0; t < plan.drain; t += plan.slice) {
    cluster.run_for(plan.slice);
    if (cluster.quiesce_report().clean()) return;
  }
}

/// Per-slice series of the measurement window.
struct SliceLog {
  std::vector<double> wall_s, virtual_s, commits, aborts, events;
};

int run_pass(const std::string& name, std::uint64_t seed, PassKind kind,
             bool quick, Clock::time_point origin) {
  WorkloadPlan plan;
  if (!make_plan(name, seed, quick, plan)) {
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    return 1;
  }
  const bool tcp = plan.cluster.transport != net::TransportKind::kDes;
  const bool verified = kind == PassKind::kVerified;
  const bool traced = kind == PassKind::kTraced;
  const bool budgeted = verified && plan.verify_budget != 0;
  Laps laps(origin);
  JsonOut out;
  out.open();
  out.str("workload", name);
  out.uint("seed", seed);
  out.str("pass", verified ? "verified" : traced ? "traced" : "timed");
  laps.lap("startup");

  LockedHist next_ns, dispatch_ns, decode_ns;
  std::atomic<bool> window_open{false};
  std::atomic<std::uint64_t> frames_seen{0};
  bool ok = true;
  std::string failure;
  {
    protocol::Cluster cluster(plan.cluster);
    laps.lap("ctor");
    // DES latencies are virtual; over TCP virtual time trails the wall clock
    // whenever the protocol thread is saturated, so measure wall time there.
    const auto wall0 = Clock::now();
    std::function<double()> now_ms;
    if (tcp) {
      now_ms = [wall0] { return seconds_between(wall0, Clock::now()) * 1e3; };
    } else {
      now_ms = [&cluster] { return static_cast<double>(cluster.now()) / 1e3; };
    }
    BenchWorkload wl(plan.make(cluster), std::move(now_ms));
    verify::HistoryRecorder history;
    if (verified) cluster.set_history(&history);
    if (traced) {
      wl.time_next(&next_ns);
      cluster.tracer().set_capacity(std::size_t{1} << 23);
      if (cluster.wire_mode()) {
        // Same routing as the handler the Cluster installs. Sampled to keep
        // the clock reads off most frames: every kDispatchSample-th frame's
        // dispatch is timed, and every kDecodeSample-th frame is first
        // decoded on its own to time the codec on the same bytes.
        cluster.network().set_frame_handler(
            [&cluster, &window_open, &frames_seen, &dispatch_ns, &decode_ns](
                NodeId to, const std::uint8_t* data, std::size_t size) {
              const std::uint64_t n =
                  window_open.load(std::memory_order_relaxed)
                      ? frames_seen.fetch_add(1, std::memory_order_relaxed)
                      : 1;
              if (n % kDispatchSample != 0) {
                return wire::dispatch_frame(cluster, to, data, size) ==
                       wire::DecodeStatus::kOk;
              }
              if (n % kDecodeSample == 0) {
                const auto d0 = Clock::now();
                wire::AnyMessage msg;
                (void)wire::decode_frame(data, size, msg);
                decode_ns.record(ns_between(d0, Clock::now()));
              }
              const auto t0 = Clock::now();
              const bool delivered =
                  wire::dispatch_frame(cluster, to, data, size) ==
                  wire::DecodeStatus::kOk;
              dispatch_ns.record(ns_between(t0, Clock::now()));
              return delivered;
            });
      }
    }
    wl.load(cluster);
    laps.lap("load");
    if (plan.tpcc) workload::reset_tpcc_atomicity_violations();

    auto pool = workload::ClientPool::with_total(cluster, wl, plan.clients);
    if (budgeted) {
      wl.set_budget(plan.verify_budget, [&pool] { pool.request_stop_all(); });
    }
    pool.start_all();
    laps.lap("clients");

    if (budgeted) {
      // Run the fixed budget to completion; the "window" is the whole run.
      while (!pool.all_stopped()) cluster.run_for(msec(50));
      laps.lap("window");
      drain(cluster, plan);
      laps.lap("drain");
    } else {
      cluster.run_for(plan.warmup);
      cluster.metrics().set_measurement_start(cluster.now());
      cluster.reset_obs();
      laps.lap("warmup");

      const harness::Metrics& m = cluster.metrics();
      const std::uint64_t epochs0 = cluster.sharded().epochs();
      const std::uint64_t posts0 = cluster.sharded().cross_posts();
      const AllocTotals alloc0 = alloc_totals();
      // The tracer covers the first second of the window.
      const std::uint32_t traced_slices = static_cast<std::uint32_t>(
          std::max<Timestamp>(1, std::min(sec(1), plan.slice * plan.slices) /
                                     plan.slice));
      SliceLog log;
      window_open.store(true);
      for (std::uint32_t i = 0; i < plan.slices; ++i) {
        if (traced) cluster.tracer().set_enabled(i < traced_slices);
        wl.set_slice(static_cast<int>(i), plan.slices);
        const auto t0 = Clock::now();
        const std::uint64_t e0 = cluster.sharded().executed();
        const std::uint64_t c0 = m.commits();
        const std::uint64_t a0 = m.aborts();
        const Timestamp v0 = cluster.now();
        cluster.run_for(plan.slice);
        log.wall_s.push_back(seconds_between(t0, Clock::now()));
        log.virtual_s.push_back(static_cast<double>(cluster.now() - v0) / 1e6);
        log.events.push_back(
            static_cast<double>(cluster.sharded().executed() - e0));
        log.commits.push_back(static_cast<double>(m.commits() - c0));
        log.aborts.push_back(static_cast<double>(m.aborts() - a0));
        if (traced && i + 1 == traced_slices) laps.lap("window_traced");
      }
      cluster.tracer().set_enabled(false);
      wl.set_slice(-1, plan.slices);
      window_open.store(false);
      laps.lap("window");
      const AllocTotals alloc1 = alloc_totals();

      out.open("window");
      out.uint("commits", m.commits());
      out.uint("aborts", m.aborts());
      out.uint("epochs", cluster.sharded().epochs() - epochs0);
      out.uint("cross_posts", cluster.sharded().cross_posts() - posts0);
      out.uint("allocs", alloc1.allocs - alloc0.allocs);
      out.uint("alloc_bytes", alloc1.bytes - alloc0.bytes);
      out.uint("reads", m.reads());
      out.uint("spec_reads", m.speculative_reads());
      out.open("aborts_by_reason");
      for (AbortReason r :
           {AbortReason::LocalCertification, AbortReason::GlobalCertification,
            AbortReason::RemoteReplication, AbortReason::Misspeculation,
            AbortReason::CascadingAbort}) {
        out.uint(to_string(r), m.aborts_of(r));
      }
      out.close();
      out.open("slices");
      out.nums("wall_s", log.wall_s);
      out.nums("virtual_s", log.virtual_s);
      out.nums("events", log.events);
      out.nums("commits", log.commits);
      out.nums("aborts", log.aborts);
      // Final latencies of the window, slice after slice.
      std::vector<double> n, all;
      for (const std::vector<double>& s : wl.samples_ms()) {
        all.insert(all.end(), s.begin(), s.end());
        n.push_back(static_cast<double>(s.size()));
      }
      out.nums("latency_n", n);
      out.close();
      out.nums("latency_ms", all);
      out.close();

      report_registry(cluster.merged_obs(), out);
      laps.lap("merge");

      pool.request_stop_all();
      drain(cluster, plan);
      laps.lap("drain");
    }

    // -- correctness gate (every pass) --------------------------------------
    const protocol::Cluster::QuiesceReport q = cluster.quiesce_report();
    const std::uint64_t lost =
        counter_or_zero(cluster.merged_obs(), "recovery.lost_commits");
    if (!q.clean()) {
      ok = false;
      failure = "did not quiesce: live=" + std::to_string(q.live_txns) +
                " parked=" + std::to_string(q.parked_reads) +
                " locks=" + std::to_string(q.uncommitted_txns) +
                " orphans=" + std::to_string(q.orphans) +
                " in_doubt=" + std::to_string(q.in_doubt);
    } else if (lost != 0) {
      ok = false;
      failure = std::to_string(lost) + " lost commit(s)";
    } else if (plan.tpcc && workload::tpcc_atomicity_violations() != 0) {
      ok = false;
      failure = "TPC-C order-status saw a non-atomic snapshot";
    }
    if (tcp) {
      // Conservation holds once the loops are stopped: every frame handed
      // to a socket was either reassembled at its peer or counted dropped.
      cluster.transport()->stop();
      const net::TransportStats s = cluster.transport()->stats();
      out.open("transport");
      out.uint("frames_sent", s.frames_sent);
      out.uint("frames_received", s.frames_received);
      out.uint("frames_dropped", s.frames_dropped);
      out.uint("partials_discarded", s.partial_frames_discarded);
      out.close();
      if (ok && (s.frames_sent != s.frames_received + s.frames_dropped ||
                 s.partial_frames_discarded != 0)) {
        ok = false;
        failure = "transport frames not conserved";
      }
    }
    std::uint64_t peak_chain = 0;
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      for (const auto& [pid, actor] : cluster.node(n).replicas()) {
        peak_chain = std::max(peak_chain, actor->store().stats().peak_chain);
      }
    }
    out.uint("peak_chain", peak_chain);
    out.uint("total_commits", cluster.metrics().commits());
    out.num("peak_rss_mb", peak_rss_mb());
    laps.lap("checks");

    if (verified) {
      // Region-sharded runs append history from worker threads; canonical
      // order makes the verdict a pure function of the trajectory.
      if (cluster.config().threads > 1) history.canonicalize();
      verify::SpsiChecker checker(history);
      const std::vector<std::string> violations = checker.check_all();
      const double verify_s = laps.lap("verify");
      out.open("verify");
      out.num("wall_s", verify_s);
      out.uint("reads", history.reads().size());
      out.uint("violations", violations.size());
      out.close();
      if (!violations.empty() && ok) {
        ok = false;
        failure = "SPSI violation: " + violations.front();
      }
    }

    if (traced) {
      const std::uint64_t dropped =
          cluster.tracer().dropped() + cluster.tracer().spans_dropped();
      out.open("traced");
      out.uint("trace_dropped", dropped);
      out.uint("dispatch_sample", kDispatchSample);
      out.uint("decode_sample", kDecodeSample);
      report_hist("dispatch_ns", dispatch_ns, out);
      report_hist("decode_ns", decode_ns, out);
      report_hist("next_ns", next_ns, out);
      const std::size_t uncovered =
          report_critical_paths(cluster.tracer(), out);
      out.close();
      if (dropped != 0 && ok) {
        ok = false;
        failure = "tracer dropped " + std::to_string(dropped) + " record(s)";
      } else if (uncovered != 0 && ok) {
        ok = false;
        failure = std::to_string(uncovered) +
                  " critical path(s) do not cover begin -> commit";
      }
      laps.lap("analyze");
    }
    // Destruction (clients, history, workload, cluster) is the teardown lap.
  }
  laps.lap("teardown");

  out.boolean("ok", ok);
  out.str("failure", failure);
  out.open("laps");
  for (const auto& [lap_name, s] : laps.laps()) out.num(lap_name, s);
  out.close();
  out.close();
  std::printf("%s\n", out.text().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  std::string workload_name;
  std::uint64_t seed = 1;
  PassKind kind = PassKind::kTimed;
  bool quick = false;
  bool usage = false;
  for (int i = 1; i < argc && !usage; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pass" && has_value) {
      const std::string v = argv[++i];
      if (v == "verified") {
        kind = PassKind::kVerified;
      } else if (v == "timed") {
        kind = PassKind::kTimed;
      } else if (v == "traced") {
        kind = PassKind::kTraced;
      } else {
        usage = true;
      }
    } else if (arg == "--quick") {
      quick = true;
    } else {
      usage = true;
    }
  }
  if (usage || workload_name.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload synth-a|tpcc-durable|synth-b-sharded|"
                 "synth-a-tcp --seed N --pass verified|timed|traced "
                 "[--quick]\n",
                 argv[0]);
    return 1;
  }
  try {
    return run_pass(workload_name, seed, kind, quick, origin);
  } catch (const std::exception& e) {
    // Real transports can fail at the OS level (fd exhaustion, no loopback).
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
