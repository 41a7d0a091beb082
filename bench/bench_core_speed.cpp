// DES core-speed baseline: how fast does the simulator itself run?
//
// Every result in the repo comes out of the discrete-event simulator, so
// events/sec *is* experiment throughput. This harness drives a fixed-seed
// 9-region synthetic run and reports, for the measurement window:
//
//   events/sec            scheduler events executed per wall-clock second
//   txns/sec              committed transactions per wall-clock second
//   allocs/event          heap allocations per event, via the interposing
//                         operator-new counter below
//
// and, for the whole run:
//
//   peak versions/key     longest MV version chain observed on any key
//   store keys            key entries summed over every partition replica
//   peak RSS              process high-water resident set (getrusage)
//
// The human-readable output ends with two blocks that are not part of the
// JSON. "Memory by structure" is the heap the key tables (entry arena, key
// index, spilled version chains), the actors' tombstone tables, the latency
// histograms and the write payloads hold at the end of the run, and the
// heap in use right after the Cluster constructor. "Lattice split" is where
// the measurement window's wall time went on each worker of the
// region-sharded scheduler: executing shard windows, installing cross-shard
// mailboxes when a window starts, and waiting at the epoch barrier; plus
// the control thread's serial work between windows (global tasks and serial
// installs).
//
// The numbers are written to BENCH_CORE.json; the copy committed at the
// repo root is the regression baseline that CI's bench-smoke job compares
// against (scripts/check_bench_regression.py). The event/commit counts,
// peak chain length and store key count are fully deterministic for a
// given seed; wall-clock rates, the alloc count and peak RSS depend on the
// machine/stdlib. See docs/PERFORMANCE.md for the schema and how to
// regenerate the baseline.
//
// --threads N runs the region-sharded scheduler on N worker threads
// (BENCH_PARALLEL.json is the committed threads=4 baseline); the scheduler
// runs at most one per region, and "threads" in the JSON is the count that
// actually ran. Every worker count runs the same lattice, so the
// deterministic counters are identical for every worker count and every
// machine. Per-worker allocation tallies are reported so skew in allocator
// pressure across shards is visible, not averaged away.
//
// --repeat N runs the whole measurement N times, each on a fresh cluster
// in the same process, checks that every deterministic field agrees across
// the runs, and reports the run with the median wall time: on a shared
// host one short window's rate spreads by a factor of two, and the median
// of a few is a steadier baseline. The allocation fields (allocs,
// alloc_bytes, allocs_per_event, allocs_per_thread) come from the run with
// the fewest allocations instead: the process's first run makes a few
// dozen more than the rest, and the median-wall run may or may not be that
// one. Peak RSS is the process's, over all runs.
//
// Usage: bench_core_speed [--quick] [--wire] [--threads N] [--repeat N]
//                         [--out PATH] [--duration SEC] [--seed N]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <malloc.h>
#include <sys/resource.h>
#include <unordered_set>
#include <vector>

#include "protocol/cluster.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

// ---------------------------------------------------------------------------
// Interposing allocation counter: every global operator new in the process
// bumps the calling thread's tally. The measurement window's totals are the
// sum of the workers' tallies (worker 0 is the calling thread, and no other
// thread runs in a DES window); a process-wide atomic would be one cache
// line every worker writes on every allocation, and would cost the
// multi-worker runs the very sharing the lattice avoids. The per-worker
// split is reported too (each worker owns its shards' event loops, so
// per-thread == per-shard pressure).
namespace {

thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* try_alloc(std::size_t size) noexcept {
  ++t_allocs;
  t_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* try_alloc(std::size_t size, std::align_val_t align) noexcept {
  ++t_allocs;
  t_alloc_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? a : size) != 0) {
    return nullptr;
  }
  return p;
}

template <class... Align>
void* counted_alloc(std::size_t size, Align... align) {
  void* p = try_alloc(size, align...);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, the nothrow ones too: under AddressSanitizer a
// form left out is the sanitizer's, and its blocks would meet the free()
// below (std::stable_sort's buffer is one).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return try_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return try_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return try_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return try_alloc(size, align);
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

constexpr Timestamp kWarmup = sec(1);
constexpr std::uint32_t kMaxRepeat = 100;
/// Longest measurement window --duration takes, in virtual seconds.
constexpr std::uint64_t kMaxDurationS = 3600;

struct Options {
  bool quick = false;
  bool wire = false;
  const char* out = "BENCH_CORE.json";
  std::uint64_t seed = 42;
  Timestamp duration = sec(10);
  std::uint32_t clients = 180;
  std::uint32_t threads = 1;
  std::uint32_t repeat = 1;
};

struct StoreTotals {
  std::uint64_t peak_chain = 0;  ///< max over replicas
  std::uint64_t keys = 0;        ///< sum over replicas
};

StoreTotals store_totals(protocol::Cluster& cluster) {
  StoreTotals t;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (const auto& [pid, actor] : cluster.node(n).replicas()) {
      const store::StoreStats s = actor->store().stats();
      t.peak_chain = std::max(t.peak_chain, s.peak_chain);
      t.keys += s.keys;
    }
  }
  return t;
}

/// Heap bytes held by each memory-heavy structure, summed cluster-wide.
struct MemoryByStructure {
  store::TableBytes tables;
  std::uint64_t tombstone_bytes = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t histogram_bytes = 0;
  std::uint64_t histograms = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payloads = 0;
};

/// glibc's chunk for a malloc request of `n` bytes: 8 B of header, 16 B
/// granules, 32 B at least.
std::uint64_t heap_chunk(std::uint64_t n) {
  return std::max<std::uint64_t>(32, (n + 8 + 15) & ~std::uint64_t{15});
}

/// Heap of one payload from make_shared<const Value>: one block holding
/// the reference counts (with libstdc++'s vtable pointer) and the string,
/// plus the string's own buffer once it outgrows the inline one.
std::uint64_t payload_heap(const Value& v) {
  std::uint64_t bytes = heap_chunk(2 * sizeof(void*) + sizeof(Value));
  if (v.capacity() > Value().capacity()) bytes += heap_chunk(v.capacity() + 1);
  return bytes;
}

MemoryByStructure memory_by_structure(protocol::Cluster& cluster) {
  MemoryByStructure m;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    // Every latency timer lives in a node registry: the cluster registry
    // holds only the transport's counters.
    for (const auto& [name, timer] : cluster.node(n).obs().timers()) {
      m.histogram_bytes += timer.hist().bucket_bytes();
      ++m.histograms;
    }
    for (const auto& [pid, actor] : cluster.node(n).replicas()) {
      const store::TableBytes t = actor->store().table_bytes();
      m.tables.arena += t.arena;
      m.tables.index += t.index;
      m.tables.spilled_chains += t.spilled_chains;
      m.tombstone_bytes += actor->tombstone_bytes();
      m.tombstones += actor->tombstone_count();
    }
  }
  // Write payloads: each distinct one once, however many replicas' versions
  // and cache partitions share it.
  std::unordered_set<const Value*> payloads;
  const auto count_payloads = [&](const store::PartitionStore& s) {
    s.for_each_version_sorted([&](Key, const store::Version& v) {
      if (v.value && payloads.insert(v.value.get()).second) {
        m.payload_bytes += payload_heap(*v.value);
      }
    });
  };
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (const auto& [pid, actor] : cluster.node(n).replicas()) {
      count_payloads(actor->store());
    }
    count_payloads(cluster.node(n).cache().store());
  }
  m.payloads = payloads.size();
  return m;
}

/// Heap bytes in use (glibc's count of allocated chunks, mmapped ones too).
std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// MB as in peak RSS: 2^20 bytes.
double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Process high-water resident set in MB (Linux reports ru_maxrss in KB).
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One measurement on a fresh cluster: warm-up, the window, then a drain.
struct Run {
  std::uint32_t workers = 0;
  std::uint64_t ctor_heap = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::vector<std::uint64_t> worker_allocs;
  std::vector<std::uint64_t> worker_alloc_bytes;
  std::uint64_t epochs = 0;
  std::uint64_t cross_posts = 0;
  sim::ShardedScheduler::LatticeSplit split_before;
  sim::ShardedScheduler::LatticeSplit split_after;
  StoreTotals totals;
  MemoryByStructure mem;

  /// The fields a seed fixes, equal in every run of one invocation.
  bool same_trajectory(const Run& o) const {
    return events == o.events && commits == o.commits &&
           epochs == o.epochs && cross_posts == o.cross_posts &&
           totals.peak_chain == o.totals.peak_chain &&
           totals.keys == o.totals.keys;
  }
};

Run run_once(const Options& opt) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.seed = opt.seed;
  cfg.wire_codec = opt.wire;
  cfg.threads = opt.threads;

  Run run;
  const std::uint64_t heap_before_ctor = heap_in_use();
  protocol::Cluster cluster(cfg);
  run.ctor_heap = heap_in_use() - heap_before_ctor;
  workload::SyntheticWorkload wl(cluster,
                                 workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, opt.clients);
  pool.start_all();

  cluster.run_for(kWarmup);
  cluster.metrics().set_measurement_start(cluster.now());

  // Per-worker allocation tallies: snapshot each worker thread's counter at
  // the window edges (worker 0 is the calling thread). Sized before the
  // snapshot so the vectors' own allocations stay outside the window, and
  // by the workers that run: the scheduler clamps the request to one per
  // region.
  run.workers = cluster.sharded().num_workers();
  run.worker_allocs.assign(run.workers, 0);
  run.worker_alloc_bytes.assign(run.workers, 0);
  run.split_before = cluster.sharded().lattice_split();
  cluster.sharded().for_each_worker([&](std::uint32_t w) {
    run.worker_allocs[w] = t_allocs;
    run.worker_alloc_bytes[w] = t_alloc_bytes;
  });

  // executed() sums every shard's queue (scheduler() would see one shard's
  // slice).
  const std::uint64_t events_before = cluster.sharded().executed();
  const auto wall_start = std::chrono::steady_clock::now();

  cluster.run_for(opt.duration);

  const auto wall_end = std::chrono::steady_clock::now();
  cluster.sharded().for_each_worker([&](std::uint32_t w) {
    run.worker_allocs[w] = t_allocs - run.worker_allocs[w];
    run.worker_alloc_bytes[w] = t_alloc_bytes - run.worker_alloc_bytes[w];
  });
  run.events = cluster.sharded().executed() - events_before;
  for (std::uint32_t w = 0; w < run.workers; ++w) {
    run.allocs += run.worker_allocs[w];
    run.alloc_bytes += run.worker_alloc_bytes[w];
  }
  run.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  // After the allocation tallies: the snapshot allocates.
  run.split_after = cluster.sharded().lattice_split();
  run.commits = cluster.metrics().commits();
  run.epochs = cluster.sharded().epochs();
  run.cross_posts = cluster.sharded().cross_posts();

  // Drain (excluded from the window) so teardown is clean.
  pool.request_stop_all();
  cluster.run_for(sec(3));

  run.totals = store_totals(cluster);
  run.mem = memory_by_structure(cluster);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.duration = sec(3);
    } else if (std::strcmp(argv[i], "--wire") == 0) {
      // Wire codec mode: same events and commits (the transport is
      // behaviour-neutral), but every message pays encode + decode, so the
      // wall-clock and allocation numbers report the codec overhead.
      opt.wire = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_count(argv[++i], 1, kMaxDurationS, n)) {
        std::fprintf(stderr, "--duration wants whole seconds in [1,%llu]\n",
                     static_cast<unsigned long long>(kMaxDurationS));
        return 1;
      }
      opt.duration = sec(n);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 0, UINT64_MAX, opt.seed)) {
        std::fprintf(stderr, "--seed wants a count in [0,2^64-1]\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_count(argv[++i], 1, kMaxThreads, n)) {
        std::fprintf(stderr, "--threads wants a count in [1,%u]\n",
                     kMaxThreads);
        return 1;
      }
      opt.threads = static_cast<std::uint32_t>(n);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_count(argv[++i], 1, kMaxRepeat, n)) {
        std::fprintf(stderr, "--repeat wants a count in [1,%u]\n",
                     kMaxRepeat);
        return 1;
      }
      opt.repeat = static_cast<std::uint32_t>(n);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--wire] [--threads N] [--repeat N] "
                   "[--out PATH] [--duration SEC] [--seed N]\n",
                   argv[0]);
      return 1;
    }
  }

  std::vector<Run> runs;
  runs.reserve(opt.repeat);
  for (std::uint32_t r = 0; r < opt.repeat; ++r) runs.push_back(run_once(opt));
  for (std::size_t r = 1; r < runs.size(); ++r) {
    if (!runs[r].same_trajectory(runs[0])) {
      std::fprintf(stderr,
                   "run %zu diverged from run 0: events %llu vs %llu, "
                   "commits %llu vs %llu\n",
                   r, static_cast<unsigned long long>(runs[r].events),
                   static_cast<unsigned long long>(runs[0].events),
                   static_cast<unsigned long long>(runs[r].commits),
                   static_cast<unsigned long long>(runs[0].commits));
      return 1;
    }
  }
  // The run with the median wall time (the lower middle of an even count).
  std::vector<const Run*> by_wall;
  for (const Run& r : runs) by_wall.push_back(&r);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const Run* a, const Run* b) { return a->wall_s < b->wall_s; });
  const Run& run = *by_wall[(by_wall.size() - 1) / 2];
  // The allocation count does not depend on which run was the median.
  const Run& fewest = *std::min_element(
      runs.begin(), runs.end(),
      [](const Run& a, const Run& b) { return a.allocs < b.allocs; });
  const std::uint32_t workers = run.workers;
  const StoreTotals& totals = run.totals;
  const MemoryByStructure& mem = run.mem;

  const double rss_mb = peak_rss_mb();
  const double wall_s = run.wall_s;
  const double events_per_sec =
      wall_s > 0.0 ? static_cast<double>(run.events) / wall_s : 0.0;
  const double txns_per_sec =
      wall_s > 0.0 ? static_cast<double>(run.commits) / wall_s : 0.0;
  const double allocs_per_event =
      run.events > 0 ? static_cast<double>(fewest.allocs) /
                           static_cast<double>(run.events)
                     : 0.0;

  std::printf("=== DES core speed (seed %llu, %u clients, %llu s virtual, "
              "%u thread%s%s) ===\n",
              static_cast<unsigned long long>(opt.seed), opt.clients,
              static_cast<unsigned long long>(opt.duration / sec(1)),
              workers, workers == 1 ? "" : "s",
              opt.wire ? ", wire codec" : "");
  if (opt.repeat > 1) {
    std::printf("  runs              %12u (median wall; %.3f to %.3f s; "
                "fewest allocs)\n",
                opt.repeat, by_wall.front()->wall_s, by_wall.back()->wall_s);
  }
  std::printf("  events            %12llu\n",
              static_cast<unsigned long long>(run.events));
  std::printf("  wall seconds      %12.3f\n", wall_s);
  std::printf("  events/sec        %12.0f\n", events_per_sec);
  std::printf("  commits           %12llu\n",
              static_cast<unsigned long long>(run.commits));
  std::printf("  txns/sec          %12.0f\n", txns_per_sec);
  std::printf("  allocs            %12llu\n",
              static_cast<unsigned long long>(fewest.allocs));
  std::printf("  allocs/event      %12.3f\n", allocs_per_event);
  std::printf("  peak versions/key %12llu\n",
              static_cast<unsigned long long>(totals.peak_chain));
  std::printf("  store keys        %12llu\n",
              static_cast<unsigned long long>(totals.keys));
  std::printf("  peak RSS (MB)     %12.1f\n", rss_mb);
  std::printf("  epoch barriers    %12llu\n",
              static_cast<unsigned long long>(run.epochs));
  std::printf("  cross-shard posts %12llu\n",
              static_cast<unsigned long long>(run.cross_posts));
  if (workers > 1) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      std::printf("  worker %u allocs   %12llu (%llu bytes)\n", w,
                  static_cast<unsigned long long>(fewest.worker_allocs[w]),
                  static_cast<unsigned long long>(
                      fewest.worker_alloc_bytes[w]));
    }
  }
  std::printf("  memory by structure (MB, end of run)\n");
  std::printf("    key arena       %12.2f (%llu keys, %.0f B/key)\n",
              mb(mem.tables.arena), static_cast<unsigned long long>(totals.keys),
              totals.keys > 0 ? static_cast<double>(mem.tables.arena) /
                                    static_cast<double>(totals.keys)
                              : 0.0);
  std::printf("    key index       %12.2f\n", mb(mem.tables.index));
  std::printf("    spilled chains  %12.2f\n", mb(mem.tables.spilled_chains));
  std::printf("    tombstones      %12.2f (%llu)\n", mb(mem.tombstone_bytes),
              static_cast<unsigned long long>(mem.tombstones));
  std::printf("    histograms      %12.2f (%llu)\n", mb(mem.histogram_bytes),
              static_cast<unsigned long long>(mem.histograms));
  std::printf("    write payloads  %12.2f (%llu)\n", mb(mem.payload_bytes),
              static_cast<unsigned long long>(mem.payloads));
  std::printf("    heap after ctor %12.2f\n", mb(run.ctor_heap));
  std::printf("  lattice split (s, measurement window)\n");
  auto secs = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  for (std::uint32_t w = 0; w < workers; ++w) {
    const sim::ShardedScheduler::WorkerSplit& a = run.split_after.workers[w];
    const sim::ShardedScheduler::WorkerSplit& b = run.split_before.workers[w];
    std::printf("    worker %-2u  shards %8.3f  installs %7.3f  barrier %7.3f\n",
                w, secs(a.shard_ns - b.shard_ns),
                secs(a.install_ns - b.install_ns),
                secs(a.wait_ns - b.wait_ns));
  }
  std::printf("    control   between windows %7.3f\n",
              secs(run.split_after.global_ns - run.split_before.global_ns));

  std::string allocs_per_thread = "[";
  for (std::uint32_t w = 0; w < workers; ++w) {
    if (w != 0) allocs_per_thread += ", ";
    allocs_per_thread += std::to_string(fewest.worker_allocs[w]);
  }
  allocs_per_thread += "]";

  std::FILE* f = std::fopen(opt.out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"core_speed\",\n"
               "  \"schema_version\": 4,\n"
               "  \"seed\": %llu,\n"
               "  \"quick\": %s,\n"
               "  \"wire\": %s,\n"
               "  \"threads\": %u,\n"
               "  \"repeat\": %u,\n"
               "  \"clients\": %u,\n"
               "  \"virtual_warmup_s\": %llu,\n"
               "  \"virtual_duration_s\": %llu,\n"
               "  \"events\": %llu,\n"
               "  \"wall_s\": %.6f,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"commits\": %llu,\n"
               "  \"txns_per_sec\": %.1f,\n"
               "  \"allocs\": %llu,\n"
               "  \"alloc_bytes\": %llu,\n"
               "  \"allocs_per_event\": %.4f,\n"
               "  \"allocs_per_thread\": %s,\n"
               "  \"epoch_barriers\": %llu,\n"
               "  \"cross_shard_posts\": %llu,\n"
               "  \"peak_versions_per_key\": %llu,\n"
               "  \"store_keys\": %llu,\n"
               "  \"peak_rss_mb\": %.1f\n"
               "}\n",
               static_cast<unsigned long long>(opt.seed),
               opt.quick ? "true" : "false", opt.wire ? "true" : "false",
               workers, opt.repeat, opt.clients,
               static_cast<unsigned long long>(kWarmup / sec(1)),
               static_cast<unsigned long long>(opt.duration / sec(1)),
               static_cast<unsigned long long>(run.events), wall_s,
               events_per_sec, static_cast<unsigned long long>(run.commits),
               txns_per_sec, static_cast<unsigned long long>(fewest.allocs),
               static_cast<unsigned long long>(fewest.alloc_bytes),
               allocs_per_event, allocs_per_thread.c_str(),
               static_cast<unsigned long long>(run.epochs),
               static_cast<unsigned long long>(run.cross_posts),
               static_cast<unsigned long long>(totals.peak_chain),
               static_cast<unsigned long long>(totals.keys), rss_mb);
  std::fclose(f);
  return 0;
}
