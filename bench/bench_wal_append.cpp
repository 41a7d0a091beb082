// WAL append/replay microbenchmark: per-record cost of the durability path.
//
// Measures five things over an in-memory SimMedium (synchronous sync, so
// the numbers isolate CPU cost — encode, frame, checksum, batch bookkeeping
// — from the modeled fsync latency the DES charges):
//
//   append     — encode_commit + Wal::append, swept over group-commit
//                batch sizes. Batch 1 syncs every record; larger batches
//                amortize the flush bookkeeping exactly as a real group
//                commit amortizes the fsync.
//   quorum     — encode_decision + the ReplicatedDecisionLog ack barrier in
//                the zero-latency limit (members ack inside the send hook),
//                so the number isolates the tracking/bookkeeping cost the
//                quorum commit point adds per decision, swept over quorum
//                sizes.
//   scan       — durable_prefix() validation alone (crash-time fate checks).
//   replay     — checksum-scan + decode of the log just written (the
//                restart path), reported as records/s and MB/s.
//   checkpoint — encode_checkpoint + rewrite + scan of one image the size
//                of a tpcc-durable checkpoint (kCheckpointVersions versions
//                of kCheckpointValueBytes-byte values), one image per 1000
//                records; a checkpoint checksums its whole image. The image
//                holds its values by reference, so the row also prints the
//                heap the medium holds for one installed image
//                (Medium::held_bytes) next to the image's log bytes.
//
// Numbers are wall-clock and machine-dependent. `--out FILE` writes them as
// JSON (bench "wal_append"); BENCH_WAL.json is the committed full-size
// baseline and CI gates each row's records/s against it, and its log bytes
// exactly (scripts/check_bench_regression.py, docs/PERFORMANCE.md).
//
// --repeat N runs every row N times, checks that each row's log bytes
// agree across the runs, and reports each row's median run: on a shared
// host consecutive full runs differ by up to 40% per row, more than the
// gate's 20%.
//
// Usage: bench_wal_append [--quick] [--records N] [--value-bytes B]
//                         [--repeat N] [--out FILE]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduler.hpp"
#include "storage/decision_log.hpp"
#include "storage/medium.hpp"
#include "storage/wal.hpp"

using namespace str;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

/// A tpcc-durable checkpoint image: about this many versions of about this
/// many value bytes (145-340 KB per image).
constexpr std::uint64_t kCheckpointVersions = 1000;
constexpr std::size_t kCheckpointValueBytes = 280;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

storage::WalUpdates make_updates(std::uint64_t i, std::size_t value_bytes) {
  storage::WalUpdates u;
  u.emplace_back(0x1000 + i * 7,
                 std::make_shared<Value>(std::string(value_bytes, 'v')));
  return u;
}

struct RunResult {
  std::uint64_t bytes = 0;
  double seconds = 0;
};

RunResult append_run(std::uint32_t batch, std::uint64_t records,
                     std::size_t value_bytes) {
  sim::Scheduler sched;
  storage::Wal::Options opts;
  opts.group_commit_batch = batch;
  // Null scheduler in the medium => sync completes inline; the Wal still
  // uses `sched` only to arm deadline timers we never need to fire (every
  // batch fills before its deadline, and stale timers are generation-
  // checked, so leaving them unprocessed is fine for a bench).
  storage::Wal wal(sched,
                   std::make_unique<storage::SimMedium>(
                       nullptr, /*fsync_latency=*/0, storage::TornWriteFault{}),
                   opts, storage::Wal::Counters{});

  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    storage::LogBuffer frame;
    storage::encode_commit(frame, TxId{0, i}, /*commit_ts=*/i,
                           make_updates(i, value_bytes));
    wal.append(std::move(frame));
  }
  wal.sync([] {});
  RunResult r;
  r.seconds = seconds_since(start);
  r.bytes = wal.end_offset();
  if (wal.durable_prefix() != wal.end_offset()) {
    std::fprintf(stderr, "FATAL: log not fully durable after sync\n");
    std::exit(1);
  }
  return r;
}

RunResult quorum_run(std::uint32_t quorum, std::uint64_t records) {
  sim::Scheduler sched;
  storage::Wal::Options opts;
  opts.group_commit_batch = 8;
  storage::Wal wal(sched,
                   std::make_unique<storage::SimMedium>(
                       nullptr, /*fsync_latency=*/0, storage::TornWriteFault{}),
                   opts, storage::Wal::Counters{});
  storage::ReplicatedDecisionLog::Options dopts;
  dopts.quorum = quorum;
  dopts.members = {1, 2};  // group of 3, counting the origin
  storage::ReplicatedDecisionLog* raw = nullptr;
  // Members ack synchronously inside the send hook: the zero-latency limit,
  // so the measurement is pure barrier bookkeeping, no modeled RTT.
  storage::ReplicatedDecisionLog log(
      sched, wal, dopts,
      [&raw](const TxId& tx, Timestamp, Timestamp,
             const std::vector<NodeId>& to) {
        for (NodeId m : to) raw->on_ack(tx, m);
      });
  raw = &log;

  std::uint64_t completed = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    log.append(TxId{0, i}, /*commit_ts=*/i, /*decided_at=*/i,
               [&completed] { ++completed; });
    // Completed barriers leave armed (no-op) retransmit timers behind;
    // drain them in batches so the bench's event queue stays flat.
    if ((i & 0xffff) == 0xffff) sched.run_until(sched.now() + sec(10));
  }
  wal.sync([] {});
  sched.run_until(sched.now() + sec(10));
  RunResult r;
  r.seconds = seconds_since(start);
  r.bytes = wal.end_offset();
  if (completed != records || log.pending_count() != 0) {
    std::fprintf(stderr, "FATAL: quorum=%u completed %llu of %llu (%zu stuck)\n",
                 quorum, static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(records),
                 log.pending_count());
    std::exit(1);
  }
  return r;
}

RunResult checkpoint_run(std::uint64_t images, std::size_t& held_bytes) {
  std::vector<storage::CheckpointVersion> snapshot;
  snapshot.reserve(kCheckpointVersions);
  for (std::uint64_t i = 0; i < kCheckpointVersions; ++i) {
    snapshot.push_back(
        {0x1000 + i * 7, i, VersionState::Committed, TxId{0, i},
         std::make_shared<Value>(std::string(kCheckpointValueBytes, 'v'))});
  }
  storage::SimMedium medium(nullptr, /*fsync_latency=*/0,
                            storage::TornWriteFault{});
  RunResult r;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < images; ++i) {
    storage::LogBuffer image;
    storage::encode_checkpoint(image, /*watermark=*/i, snapshot);
    r.bytes += image.size();
    medium.reset_durable(std::move(image));
    const storage::WalScanResult scan =
        storage::scan_wal(medium.durable_chunks(), nullptr);
    if (scan.records != 1 || scan.torn) {
      std::fprintf(stderr, "FATAL: checkpoint image failed its scan\n");
      std::exit(1);
    }
  }
  r.seconds = seconds_since(start);
  held_bytes = medium.held_bytes();
  return r;
}

struct Row {
  std::string name;
  std::uint64_t records = 0;
  RunResult result;
  /// Heap the medium holds for what the row leaves durable (checkpoint row
  /// only; 0 elsewhere).
  std::size_t held_bytes = 0;
  /// Fastest and slowest of the row's runs (--repeat).
  double min_seconds = 0;
  double max_seconds = 0;

  double records_per_sec() const {
    return result.seconds > 0 ? static_cast<double>(records) / result.seconds
                              : 0;
  }
  double mb_per_sec() const {
    return result.seconds > 0
               ? static_cast<double>(result.bytes) / result.seconds / 1e6
               : 0;
  }
};

/// One run of every row.
std::vector<Row> measure(std::uint64_t records, std::size_t value_bytes) {
  std::vector<Row> rows;
  for (std::uint32_t batch : {1u, 8u, 64u}) {
    rows.push_back({"append (batch " + std::to_string(batch) + ")", records,
                    append_run(batch, records, value_bytes)});
  }

  // Quorum 1 is the pre-quorum decision append (barrier completes on local
  // durability); 2 and 3 add member-ack tracking over a group of three.
  for (std::uint32_t quorum : {1u, 2u, 3u}) {
    rows.push_back({"decision (quorum " + std::to_string(quorum) + ")",
                    records, quorum_run(quorum, records)});
  }

  // Build one log, then time the two read-side paths over it.
  sim::Scheduler sched;
  storage::Wal wal(sched,
                   std::make_unique<storage::SimMedium>(
                       nullptr, /*fsync_latency=*/0, storage::TornWriteFault{}),
                   storage::Wal::Options{}, storage::Wal::Counters{});
  for (std::uint64_t i = 0; i < records; ++i) {
    storage::LogBuffer frame;
    storage::encode_commit(frame, TxId{0, i}, i, make_updates(i, value_bytes));
    wal.append(std::move(frame));
  }
  wal.sync([] {});

  {
    const auto start = Clock::now();
    const std::uint64_t prefix = wal.durable_prefix();
    rows.push_back({"scan (durable_prefix)", records,
                    RunResult{prefix, seconds_since(start)}});
  }
  {
    std::uint64_t visited = 0;
    const auto start = Clock::now();
    const storage::WalScanResult scan =
        wal.replay([&visited](const storage::WalRecord&) { ++visited; });
    rows.push_back({"replay (decode)", visited,
                    RunResult{scan.valid_bytes, seconds_since(start)}});
    if (visited != records || scan.torn) {
      std::fprintf(stderr, "FATAL: replay visited %llu of %llu (torn=%d)\n",
                   static_cast<unsigned long long>(visited),
                   static_cast<unsigned long long>(records), scan.torn);
      std::exit(1);
    }
  }

  const std::uint64_t images = std::max<std::uint64_t>(1, records / 1000);
  std::size_t held_bytes = 0;
  const RunResult checkpoints = checkpoint_run(images, held_bytes);
  rows.push_back({"checkpoint (encode+scan)", images, checkpoints, held_bytes});
  return rows;
}

/// Each row's median run over `runs` (the lower middle of an even count),
/// or nothing when a row's deterministic sizes differ between runs.
bool median_rows(const std::vector<std::vector<Row>>& runs,
                 std::vector<Row>& out) {
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    std::vector<const Row*> by_time;
    for (const std::vector<Row>& run : runs) {
      const Row& row = run[i];
      if (row.result.bytes != runs[0][i].result.bytes ||
          row.held_bytes != runs[0][i].held_bytes) {
        std::fprintf(stderr, "%s: log bytes %llu vs %llu across runs\n",
                     row.name.c_str(),
                     static_cast<unsigned long long>(row.result.bytes),
                     static_cast<unsigned long long>(runs[0][i].result.bytes));
        return false;
      }
      by_time.push_back(&row);
    }
    std::sort(by_time.begin(), by_time.end(), [](const Row* a, const Row* b) {
      return a->result.seconds < b->result.seconds;
    });
    Row median = *by_time[(by_time.size() - 1) / 2];
    median.min_seconds = by_time.front()->result.seconds;
    median.max_seconds = by_time.back()->result.seconds;
    out.push_back(std::move(median));
  }
  return true;
}

void print_row(const Row& row, std::uint32_t repeat) {
  std::printf("  %-24s %11.0f records/s   %8.0f MB/s   (%llu records, "
              "%.3fs",
              row.name.c_str(), row.records_per_sec(), row.mb_per_sec(),
              static_cast<unsigned long long>(row.records), row.result.seconds);
  if (repeat > 1) {
    std::printf("; median of %u, %.3f to %.3fs", repeat, row.min_seconds,
                row.max_seconds);
  }
  std::printf(")\n");
  if (row.held_bytes > 0) {
    std::printf("  %-24s %11llu log bytes per image, %zu held\n", "",
                static_cast<unsigned long long>(row.result.bytes / row.records),
                row.held_bytes);
  }
}

bool write_json(const char* path, std::uint64_t records,
                std::size_t value_bytes, std::uint32_t repeat,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"wal_append\",\n"
               "  \"records\": %llu,\n"
               "  \"value_bytes\": %zu,\n"
               "  \"repeat\": %u,\n"
               "  \"rows\": [\n",
               static_cast<unsigned long long>(records), value_bytes, repeat);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"records\": %llu, "
                 "\"records_per_sec\": %.1f, \"mb_per_sec\": %.1f, "
                 "\"log_bytes\": %llu",
                 row.name.c_str(),
                 static_cast<unsigned long long>(row.records),
                 row.records_per_sec(), row.mb_per_sec(),
                 static_cast<unsigned long long>(row.result.bytes));
    if (row.held_bytes > 0) {
      std::fprintf(f, ", \"held_bytes\": %zu", row.held_bytes);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

/// Most records a run may append: the whole log is held in memory.
constexpr std::uint64_t kMaxRecords = 100'000'000;
constexpr std::uint64_t kMaxValueBytes = 1 << 20;
constexpr std::uint32_t kMaxRepeat = 100;

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t records = 2'000'000;
  std::uint64_t value_bytes = 64;
  std::uint64_t repeat = 1;
  const char* out = nullptr;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--quick") == 0) {
      records = 100'000;
    } else if (std::strcmp(argv[i], "--records") == 0 && has_value) {
      if (!parse_count(argv[++i], 1, kMaxRecords, records)) {
        std::fprintf(stderr, "--records wants a count in [1,%llu]\n",
                     static_cast<unsigned long long>(kMaxRecords));
        return 1;
      }
    } else if (std::strcmp(argv[i], "--value-bytes") == 0 && has_value) {
      if (!parse_count(argv[++i], 0, kMaxValueBytes, value_bytes)) {
        std::fprintf(stderr, "--value-bytes wants a size in [0,%llu]\n",
                     static_cast<unsigned long long>(kMaxValueBytes));
        return 1;
      }
    } else if (std::strcmp(argv[i], "--repeat") == 0 && has_value) {
      if (!parse_count(argv[++i], 1, kMaxRepeat, repeat)) {
        std::fprintf(stderr, "--repeat wants a count in [1,%u]\n", kMaxRepeat);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && has_value) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--records N] [--value-bytes B] "
                   "[--repeat N] [--out FILE]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("=== WAL append/replay (%llu records, %llu-byte values) ===\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(value_bytes));
  std::vector<std::vector<Row>> runs;
  for (std::uint64_t r = 0; r < repeat; ++r) {
    runs.push_back(measure(records, static_cast<std::size_t>(value_bytes)));
  }
  std::vector<Row> rows;
  if (!median_rows(runs, rows)) return 1;
  for (const Row& row : rows) {
    print_row(row, static_cast<std::uint32_t>(repeat));
  }

  if (out != nullptr &&
      !write_json(out, records, static_cast<std::size_t>(value_bytes),
                  static_cast<std::uint32_t>(repeat), rows)) {
    return 1;
  }
  return 0;
}
