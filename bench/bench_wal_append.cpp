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
// Usage: bench_wal_append [--quick] [--records N] [--value-bytes B]
//                         [--out FILE]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

void report(std::vector<Row>& rows, std::string name, std::uint64_t count,
            const RunResult& r, std::size_t held_bytes = 0) {
  const Row& row =
      rows.emplace_back(Row{std::move(name), count, r, held_bytes});
  std::printf("  %-24s %11.0f records/s   %8.0f MB/s   (%llu records, "
              "%.3fs)\n",
              row.name.c_str(), row.records_per_sec(), row.mb_per_sec(),
              static_cast<unsigned long long>(count), r.seconds);
  if (held_bytes > 0) {
    std::printf("  %-24s %11llu log bytes per image, %zu held\n", "",
                static_cast<unsigned long long>(r.bytes / count), held_bytes);
  }
}

bool write_json(const char* path, std::uint64_t records,
                std::size_t value_bytes, const std::vector<Row>& rows) {
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
               "  \"rows\": [\n",
               static_cast<unsigned long long>(records), value_bytes);
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

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t records = 2'000'000;
  std::size_t value_bytes = 64;
  const char* out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      records = 100'000;
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--value-bytes") == 0 && i + 1 < argc) {
      value_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--records N] [--value-bytes B] "
                   "[--out FILE]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("=== WAL append/replay (%llu records, %zu-byte values) ===\n",
              static_cast<unsigned long long>(records), value_bytes);
  std::vector<Row> rows;

  for (std::uint32_t batch : {1u, 8u, 64u}) {
    report(rows, "append (batch " + std::to_string(batch) + ")", records,
           append_run(batch, records, value_bytes));
  }

  // Quorum 1 is the pre-quorum decision append (barrier completes on local
  // durability); 2 and 3 add member-ack tracking over a group of three.
  for (std::uint32_t quorum : {1u, 2u, 3u}) {
    report(rows, "decision (quorum " + std::to_string(quorum) + ")", records,
           quorum_run(quorum, records));
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
    RunResult r{prefix, seconds_since(start)};
    report(rows, "scan (durable_prefix)", records, r);
  }
  {
    std::uint64_t visited = 0;
    const auto start = Clock::now();
    const storage::WalScanResult scan =
        wal.replay([&visited](const storage::WalRecord&) { ++visited; });
    RunResult r{scan.valid_bytes, seconds_since(start)};
    report(rows, "replay (decode)", visited, r);
    if (visited != records || scan.torn) {
      std::fprintf(stderr, "FATAL: replay visited %llu of %llu (torn=%d)\n",
                   static_cast<unsigned long long>(visited),
                   static_cast<unsigned long long>(records), scan.torn);
      return 1;
    }
  }

  const std::uint64_t images = std::max<std::uint64_t>(1, records / 1000);
  std::size_t held_bytes = 0;
  const RunResult checkpoints = checkpoint_run(images, held_bytes);
  report(rows, "checkpoint (encode+scan)", images, checkpoints, held_bytes);

  if (out != nullptr && !write_json(out, records, value_bytes, rows)) return 1;
  return 0;
}
