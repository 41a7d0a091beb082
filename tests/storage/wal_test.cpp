// WAL unit tests: record framing (pinned byte layout) and the checksum
// scan (torn tails, bit flips, malformed bodies), group-commit batching
// over SimMedium (batch-size and deadline flush triggers, callback
// ordering, crash semantics), torn-write crash resolution, checkpoint
// rewrite, chunked durable storage, and the FileMedium mirror round-trip.
#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"
#include "storage/medium.hpp"
#include "wire/codec.hpp"

namespace str::storage {
namespace {

SharedValue val(const std::string& s) {
  return std::make_shared<const Value>(s);
}

WalUpdates two_updates() {
  return {{7, val("a")}, {9, val("bb")}};
}

template <typename Bytes>
std::vector<WalRecord> scan_all(const Bytes& bytes,
                                WalScanResult* out = nullptr) {
  std::vector<WalRecord> records;
  const WalScanResult r =
      scan_wal(bytes, [&](const WalRecord& rec) { records.push_back(rec); });
  if (out != nullptr) *out = r;
  return records;
}

wire::Buffer concat(const DurableChunks& chunks) {
  wire::Buffer flat;
  for (const wire::Buffer& chunk : chunks) {
    flat.insert(flat.end(), chunk.begin(), chunk.end());
  }
  return flat;
}

/// The record fields two scans are compared on.
struct RecordKey {
  WalRecordType type;
  TxId tx;
  Timestamp ts;
  std::size_t updates;
  std::size_t snapshot;
  bool operator==(const RecordKey&) const = default;
};

std::vector<RecordKey> keys_of(const std::vector<WalRecord>& records) {
  std::vector<RecordKey> keys;
  for (const WalRecord& r : records) {
    keys.push_back({r.type, r.tx, r.ts, r.updates.size(), r.snapshot.size()});
  }
  return keys;
}

TEST(WalCodec, EveryRecordTypeRoundTrips) {
  wire::Buffer log;
  encode_prepare(log, TxId{2, 11}, /*rs=*/100, /*proposed=*/120,
                 two_updates());
  encode_commit(log, TxId{2, 11}, /*commit_ts=*/130, two_updates());
  encode_abort(log, TxId{3, 5});
  encode_decision(log, TxId{2, 11}, /*commit_ts=*/130, /*at=*/140);
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 50, VersionState::Committed, TxId{1, 1}, val("x")});
  snap.push_back({8, 60, VersionState::PreCommitted, TxId{4, 2}, nullptr});
  encode_checkpoint(log, /*watermark=*/45, snap);

  WalScanResult result;
  const auto records = scan_all(log, &result);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.valid_bytes, log.size());

  EXPECT_EQ(records[0].type, WalRecordType::kPrepare);
  EXPECT_EQ(records[0].tx, (TxId{2, 11}));
  EXPECT_EQ(records[0].rs, 100u);
  EXPECT_EQ(records[0].ts, 120u);
  ASSERT_EQ(records[0].updates.size(), 2u);
  EXPECT_EQ(records[0].updates[1].first, 9u);
  EXPECT_EQ(*records[0].updates[1].second, "bb");

  EXPECT_EQ(records[1].type, WalRecordType::kCommit);
  EXPECT_EQ(records[1].ts, 130u);

  EXPECT_EQ(records[2].type, WalRecordType::kAbort);
  EXPECT_EQ(records[2].tx, (TxId{3, 5}));

  EXPECT_EQ(records[3].type, WalRecordType::kDecision);
  EXPECT_EQ(records[3].ts, 130u);
  EXPECT_EQ(records[3].at, 140u);

  EXPECT_EQ(records[4].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[4].ts, 45u);
  ASSERT_EQ(records[4].snapshot.size(), 2u);
  EXPECT_EQ(records[4].snapshot[0].key, 7u);
  EXPECT_EQ(*records[4].snapshot[0].value, "x");
  EXPECT_EQ(records[4].snapshot[1].state, VersionState::PreCommitted);
  EXPECT_EQ(records[4].snapshot[1].value, nullptr);
}

TEST(WalCodec, RecordLayoutIsPinned) {
  // The on-disk format: a consistent change on both the encode and the
  // decode side would still round-trip, so pin the bytes themselves.
  // Every frame is [u32le rest_len][u8 type][body][u32le CRC-32C], and a
  // fresh buffer holds exactly its one frame.
  std::vector<std::pair<wire::Buffer, wire::Buffer>> cases;
  wire::Buffer b;
  encode_prepare(b, TxId{2, 11}, /*rs=*/100, /*proposed=*/300,
                 {{7, val("a")}, {9, nullptr}});
  cases.emplace_back(std::move(b), wire::Buffer{
      0x11, 0x00, 0x00, 0x00,  // rest_len = 1 + 12 + 4
      0x01,                    // kPrepare
      0x02, 0x0b,              // tx.node, tx.seq
      0x64, 0xac, 0x02,        // rs = 100, proposed = 300
      0x02,                    // two updates
      0x07, 0x01, 0x01, 0x61,  // key 7, present, len 1, "a"
      0x09, 0x00,              // key 9, no payload
      0xa9, 0x1e, 0xb9, 0xf8,  // checksum
  });
  b = {};
  encode_commit(b, TxId{2, 11}, /*commit_ts=*/130, {{7, val("a")}});
  cases.emplace_back(std::move(b), wire::Buffer{
      0x0e, 0x00, 0x00, 0x00,  // rest_len = 1 + 9 + 4
      0x02,                    // kCommit
      0x02, 0x0b,              // tx
      0x82, 0x01,              // commit_ts = 130
      0x01, 0x07, 0x01, 0x01, 0x61,  // one update: key 7, "a"
      0x71, 0xd9, 0x74, 0xca,  // checksum
  });
  b = {};
  encode_abort(b, TxId{3, 5});
  cases.emplace_back(std::move(b), wire::Buffer{
      0x07, 0x00, 0x00, 0x00,  // rest_len = 1 + 2 + 4
      0x03,                    // kAbort
      0x03, 0x05,              // tx
      0x8c, 0xdf, 0x5c, 0x8b,  // checksum
  });
  b = {};
  encode_decision(b, TxId{2, 11}, /*commit_ts=*/130, /*at=*/140);
  cases.emplace_back(std::move(b), wire::Buffer{
      0x0b, 0x00, 0x00, 0x00,  // rest_len = 1 + 6 + 4
      0x04,                    // kDecision
      0x02, 0x0b,              // tx
      0x82, 0x01, 0x8c, 0x01,  // commit_ts = 130, at = 140
      0x44, 0x17, 0xb6, 0xda,  // checksum
  });
  b = {};
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 50, VersionState::Committed, TxId{1, 1}, val("x")});
  snap.push_back({8, 60, VersionState::PreCommitted, TxId{4, 2}, nullptr});
  encode_checkpoint(b, /*watermark=*/45, snap);
  cases.emplace_back(std::move(b), wire::Buffer{
      0x15, 0x00, 0x00, 0x00,  // rest_len = 1 + 16 + 4
      0x05,                    // kCheckpoint
      0x2d, 0x02,              // watermark = 45, two versions
      0x07, 0x32, 0x02, 0x01, 0x01, 0x01, 0x01, 0x78,  // key, ts, Committed,
                                                       // writer, "x"
      0x08, 0x3c, 0x00, 0x04, 0x02, 0x00,  // PreCommitted, no payload
      0x4e, 0x37, 0xc6, 0x12,  // checksum
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [got, want] = cases[i];
    EXPECT_EQ(got, want) << "record type " << i + 1;
    EXPECT_EQ(got.capacity(), got.size()) << "record type " << i + 1;
  }
}

TEST(WalCodec, ScanRecoversExactlyTheCompleteFramePrefix) {
  wire::Buffer log;
  encode_abort(log, TxId{1, 1});
  encode_abort(log, TxId{1, 2});
  const std::size_t two = log.size();
  encode_commit(log, TxId{1, 3}, 10, two_updates());

  // Truncate anywhere inside the third frame: exactly two records survive.
  for (std::size_t cut = two + 1; cut < log.size(); ++cut) {
    wire::Buffer torn(log.begin(), log.begin() + cut);
    WalScanResult r;
    const auto records = scan_all(torn, &r);
    ASSERT_EQ(records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, two);
    EXPECT_TRUE(r.torn);
  }
}

TEST(WalCodec, ScanStopsAtABitFlip) {
  wire::Buffer log;
  encode_abort(log, TxId{1, 1});
  const std::size_t one = log.size();
  encode_commit(log, TxId{1, 2}, 10, two_updates());
  encode_abort(log, TxId{1, 3});

  wire::Buffer flipped = log;
  flipped[one + 7] ^= 0x10;  // inside the second frame's body
  WalScanResult r;
  const auto records = scan_all(flipped, &r);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, one);
  EXPECT_TRUE(r.torn);
}

TEST(WalCodec, ScanRejectsAChecksummedButMalformedBody) {
  // A frame whose checksum is valid but whose body is garbage for its type
  // must stop the scan (defense against logic bugs, not just bit rot).
  wire::Buffer payload;
  wire::Writer w(payload);
  w.u8(static_cast<std::uint8_t>(WalRecordType::kCommit));
  w.u8(0xff);  // not a decodable commit body
  wire::Buffer log;
  wire::Writer fw(log);
  fw.u32le(static_cast<std::uint32_t>(payload.size() + 4));
  fw.bytes(payload.data(), payload.size());
  fw.u32le(wire::checksum32(payload.data(), payload.size()));

  WalScanResult r;
  const auto records = scan_all(log, &r);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.torn);
}

// -- group commit over SimMedium --------------------------------------------

struct WalFixture {
  sim::Scheduler sched;
  Wal::Options options;
  std::unique_ptr<Wal> wal;

  explicit WalFixture(std::uint32_t batch = 3, Timestamp interval = msec(2),
                      Timestamp fsync = msec(1), TornWriteFault torn = {}) {
    options.group_commit_batch = batch;
    options.group_commit_interval = interval;
    wal = std::make_unique<Wal>(
        sched, std::make_unique<SimMedium>(&sched, fsync, torn), options,
        Wal::Counters{});
  }

  std::uint64_t append_abort(const TxId& tx,
                             UniqueFunction<void()> cb = {}) {
    wire::Buffer frame;
    encode_abort(frame, tx);
    return wal->append(frame, std::move(cb));
  }
};

TEST(Wal, BatchSizeTriggersFlushAndRunsCallbacksInOrder) {
  WalFixture f(/*batch=*/3, /*interval=*/msec(50), /*fsync=*/msec(1));
  std::vector<int> order;
  f.append_abort(TxId{1, 1}, [&]() { order.push_back(1); });
  f.append_abort(TxId{1, 2}, [&]() { order.push_back(2); });
  f.sched.run_until(msec(0));  // same instant: nothing flushed yet
  EXPECT_TRUE(order.empty());
  EXPECT_FALSE(f.wal->idle());

  f.append_abort(TxId{1, 3}, [&]() { order.push_back(3); });  // batch full
  f.sched.run_until(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.wal->idle());
  EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
}

TEST(Wal, DeadlineTriggersFlushForAPartialBatch) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(2), /*fsync=*/msec(1));
  bool durable = false;
  f.append_abort(TxId{1, 1}, [&]() { durable = true; });
  f.sched.run_until(msec(1));
  EXPECT_FALSE(durable);  // deadline at 2ms has not fired
  f.sched.run_until(msec(3));  // deadline + fsync latency
  EXPECT_TRUE(durable);
  EXPECT_TRUE(f.wal->idle());
}

TEST(Wal, SyncOnCleanLogCompletesImmediately) {
  WalFixture f;
  bool done = false;
  f.wal->sync([&]() { done = true; });
  EXPECT_TRUE(done);
}

TEST(Wal, SyncForcesAPartialBatchOut) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(50), /*fsync=*/msec(1));
  f.append_abort(TxId{1, 1});
  bool done = false;
  f.wal->sync([&]() { done = true; });
  f.sched.run_until(msec(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
}

TEST(Wal, CrashDropsUnflushedRecordsAndTheirCallbacks) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(50), /*fsync=*/msec(1));
  bool ran = false;
  f.append_abort(TxId{1, 1}, [&]() { ran = true; });
  f.wal->crash();
  f.sched.run_until(msec(100));
  EXPECT_FALSE(ran);
  EXPECT_EQ(f.wal->durable_prefix(), 0u);
  EXPECT_EQ(f.wal->end_offset(), 0u);

  // The log keeps working after restart-style reuse.
  const auto replayed = f.wal->replay(nullptr);
  EXPECT_EQ(replayed.records, 0u);
  f.append_abort(TxId{2, 1});
  f.wal->sync({});
  f.sched.run_until(msec(200));
  EXPECT_GT(f.wal->durable_prefix(), 0u);
}

TEST(Wal, CrashMidFlushWithoutTornFaultLosesTheWholeChunk) {
  WalFixture f(/*batch=*/1, /*interval=*/msec(2), /*fsync=*/msec(5));
  bool ran = false;
  f.append_abort(TxId{1, 1}, [&]() { ran = true; });  // flush begins now
  f.sched.run_until(msec(2));                         // fsync still in flight
  f.wal->crash();
  f.sched.run_until(msec(100));
  EXPECT_FALSE(ran);
  EXPECT_EQ(f.wal->durable_prefix(), 0u);
}

TEST(Wal, TornCrashPersistsOnlyACheckedPrefix) {
  // torn-write probability 1: a crash mid-fsync keeps a random nonempty
  // prefix of the chunk, possibly with one flipped bit. Whatever happened,
  // replay must recover a whole number of records and truncate the rest —
  // and identical seeds must resolve identically.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::uint64_t first_prefix = 0;
    for (int run = 0; run < 2; ++run) {
      Rng rng(seed);
      TornWriteFault torn{1.0, &rng};
      WalFixture f(/*batch=*/4, msec(2), msec(5), torn);
      for (std::uint64_t i = 1; i <= 4; ++i) f.append_abort(TxId{1, i});
      const std::uint64_t full = f.wal->end_offset();
      f.sched.run_until(msec(1));  // sync in flight
      f.wal->crash();

      const std::uint64_t prefix = f.wal->durable_prefix();
      EXPECT_LE(prefix, full);
      std::size_t n = 0;
      const WalScanResult r =
          f.wal->replay([&](const WalRecord& rec) {
            ++n;
            EXPECT_EQ(rec.type, WalRecordType::kAbort);
          });
      EXPECT_EQ(r.valid_bytes, prefix);
      EXPECT_EQ(n, r.records);
      // After truncation the log is whole again.
      EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
      if (run == 0) {
        first_prefix = prefix;
      } else {
        EXPECT_EQ(prefix, first_prefix) << "nondeterministic torn resolution";
      }
    }
  }
}

TEST(Wal, RewriteReplacesTheLogWithACheckpoint) {
  WalFixture f(/*batch=*/1, msec(2), msec(1));
  for (std::uint64_t i = 1; i <= 5; ++i) f.append_abort(TxId{1, i});
  f.sched.run_until(msec(20));
  ASSERT_TRUE(f.wal->idle());

  wire::Buffer ckpt;
  std::vector<CheckpointVersion> snap;
  snap.push_back({1, 10, VersionState::Committed, TxId{1, 1}, val("v")});
  encode_checkpoint(ckpt, /*watermark=*/9, snap);
  f.wal->rewrite(ckpt);

  std::vector<WalRecord> records;
  f.wal->replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(f.wal->end_offset(), ckpt.size());

  // Appends continue after the rewrite in the new coordinates.
  const std::uint64_t end = f.append_abort(TxId{2, 1});
  EXPECT_GT(end, ckpt.size());
}

TEST(Wal, AppendReturnsEndOffsetsComparableToDurablePrefix) {
  WalFixture f(/*batch=*/2, msec(50), msec(1));
  const std::uint64_t e1 = f.append_abort(TxId{1, 1});
  const std::uint64_t e2 = f.append_abort(TxId{1, 2});
  EXPECT_GT(e2, e1);
  EXPECT_LT(f.wal->durable_prefix(), e1);  // nothing durable yet
  f.sched.run_until(msec(2));
  EXPECT_GE(f.wal->durable_prefix(), e2);  // batch of 2 flushed
}

// -- chunked durable storage -------------------------------------------------

TEST(WalChunks, ChunkedLogScansAndTruncatesLikeItsConcatenation) {
  // Several syncs, a checkpoint rewrite in the middle, more syncs, then a
  // crash that tears the last one. Whatever the tear kept (a clean prefix
  // or one with a flipped bit), the chunk list must scan to the same
  // records and valid_bytes as its concatenation, and replay must truncate
  // to that prefix.
  int flipped = 0;
  int clean = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    WalFixture f(/*batch=*/3, msec(2), /*fsync=*/msec(1),
                 TornWriteFault{1.0, &rng});
    auto commit = [&f](std::uint64_t seq) {
      wire::Buffer frame;
      encode_commit(frame, TxId{1, seq}, seq, two_updates());
      f.wal->append(frame);
    };
    for (std::uint64_t i = 1; i <= 6; ++i) commit(i);  // two syncs
    f.sched.run_until(f.sched.now() + msec(10));
    ASSERT_TRUE(f.wal->idle());

    wire::Buffer ckpt;
    std::vector<CheckpointVersion> snap;
    snap.push_back({7, 6, VersionState::Committed, TxId{1, 6}, val("a")});
    encode_checkpoint(ckpt, /*watermark=*/5, snap);
    f.wal->rewrite(std::move(ckpt));

    for (std::uint64_t i = 7; i <= 12; ++i) {
      commit(i);
      f.append_abort(TxId{2, i});
    }
    f.sched.run_until(f.sched.now() + msec(10));
    ASSERT_TRUE(f.wal->idle());
    const std::size_t whole = f.wal->medium().durable_size();

    // The last sync: in flight when the crash hits.
    wire::Buffer last;
    for (std::uint64_t i = 13; i <= 15; ++i) {
      wire::Buffer frame;
      encode_commit(frame, TxId{1, i}, i, two_updates());
      last.insert(last.end(), frame.begin(), frame.end());
      f.wal->append(frame);
    }
    ASSERT_TRUE(f.wal->medium().sync_in_flight());
    f.wal->crash();

    const DurableChunks& chunks = f.wal->medium().durable_chunks();
    ASSERT_GE(chunks.size(), 4u) << "seed " << seed;
    const wire::Buffer& tail = chunks.back();
    ASSERT_EQ(f.wal->medium().durable_size(), whole + tail.size());
    ASSERT_GE(tail.size(), 1u);
    if (std::equal(tail.begin(), tail.end(), last.begin())) {
      ++clean;
    } else {
      ++flipped;
    }

    const wire::Buffer flat = concat(chunks);
    WalScanResult flat_r;
    const auto flat_records = scan_all(flat, &flat_r);
    WalScanResult chunk_r;
    const auto chunk_records = scan_all(chunks, &chunk_r);
    EXPECT_EQ(chunk_r.valid_bytes, flat_r.valid_bytes) << "seed " << seed;
    EXPECT_EQ(chunk_r.records, flat_r.records) << "seed " << seed;
    EXPECT_EQ(chunk_r.torn, flat_r.torn) << "seed " << seed;
    EXPECT_EQ(keys_of(chunk_records), keys_of(flat_records)) << "seed " << seed;
    EXPECT_GE(chunk_r.valid_bytes, whole);  // the tear stays in the tail
    EXPECT_EQ(f.wal->durable_prefix(), flat_r.valid_bytes);

    const WalScanResult replayed = f.wal->replay(nullptr);
    EXPECT_EQ(replayed.valid_bytes, flat_r.valid_bytes);
    EXPECT_EQ(concat(f.wal->medium().durable_chunks()),
              wire::Buffer(flat.begin(),
                           flat.begin() + static_cast<std::ptrdiff_t>(
                                              flat_r.valid_bytes)))
        << "seed " << seed;
    EXPECT_EQ(f.wal->end_offset(), flat_r.valid_bytes);
  }
  EXPECT_GT(flipped, 0);
  EXPECT_GT(clean, 0);
}

wire::Buffer read_file(const std::string& path) {
  wire::Buffer bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c = 0;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  return bytes;
}

TEST(FileMedium, MirrorsDurableBytesAndAdoptsThemBack) {
  // The file equals the concatenated durable chunks after every kind of
  // change: syncs (appended), a torn crash (tail appended), the replay's
  // truncation and a rewrite (file replaced), then more syncs.
  const std::string path = testing::TempDir() + "wal_mirror_test.wal";
  std::remove(path.c_str());
  sim::Scheduler sched;
  Rng rng(2);
  auto decision = [](std::uint64_t seq) {
    wire::Buffer frame;
    encode_decision(frame, TxId{3, seq}, 70 + seq, 80 + seq);
    return frame;
  };
  {
    Wal wal(sched,
            std::make_unique<FileMedium>(path, &sched, msec(1),
                                         TornWriteFault{1.0, &rng}),
            Wal::Options{1, msec(2)}, Wal::Counters{});
    const Medium& medium = wal.medium();
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      wal.append(decision(seq));
      sched.run_until(sched.now() + msec(10));
    }
    ASSERT_TRUE(wal.idle());
    EXPECT_EQ(medium.durable_chunks().size(), 4u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));

    wal.append(decision(5));  // its sync is in flight at the crash
    wal.crash();
    EXPECT_EQ(medium.durable_chunks().size(), 5u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));
    EXPECT_TRUE(wal.replay(nullptr).torn);  // this seed tears the tail
    EXPECT_EQ(medium.durable_chunks().size(), 1u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));

    wire::Buffer compacted = decision(9);
    wal.rewrite(compacted);
    EXPECT_EQ(read_file(path), compacted);
    wal.append(decision(10));
    sched.run_until(sched.now() + msec(10));
    EXPECT_EQ(medium.durable_chunks().size(), 2u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));
    EXPECT_TRUE(static_cast<const FileMedium&>(medium).io_ok());
  }
  // A second medium over the same path adopts the file's contents.
  Wal wal2(sched,
           std::make_unique<FileMedium>(path, &sched, msec(1),
                                        TornWriteFault{}),
           Wal::Options{}, Wal::Counters{});
  std::vector<WalRecord> records;
  wal2.replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, WalRecordType::kDecision);
  EXPECT_EQ(records[0].tx, (TxId{3, 9}));
  EXPECT_EQ(records[0].ts, 79u);
  EXPECT_EQ(records[1].tx, (TxId{3, 10}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace str::storage
