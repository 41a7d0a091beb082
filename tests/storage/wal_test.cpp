// WAL unit tests: record framing (pinned byte layout, the outcome-only
// commit) and the checksum scan (torn tails, bit flips, malformed bodies,
// out-of-range fields, forged counts, resealed random mutations),
// group-commit batching over SimMedium (batch-size and deadline flush
// triggers, callback ordering, crash semantics), torn-write crash
// resolution, checkpoint rewrite and the bytes appended since it, chunked
// durable storage, payloads held by reference, and the FileMedium mirror
// round-trip.
#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
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

/// The log's bytes: every chunk's logical bytes, concatenated.
wire::Buffer concat(const DurableChunks& chunks) {
  wire::Buffer flat;
  for (const LogBuffer& chunk : chunks) {
    const wire::Buffer bytes = chunk.flatten();
    flat.insert(flat.end(), bytes.begin(), bytes.end());
  }
  return flat;
}

/// The same logical bytes with every payload inline: a flat frame.
LogBuffer flat(const LogBuffer& buf) { return LogBuffer(buf.flatten()); }

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
  LogBuffer log;
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
  // decode side would still round-trip, so pin the bytes themselves: the
  // logical bytes a frame stands for, payloads spliced in. Every frame is
  // [u32le rest_len][u8 type][body][u32le CRC-32C], and a fresh buffer
  // holds exactly its one frame: its non-payload bytes and one slice per
  // payload, each at exact capacity.
  std::vector<std::pair<LogBuffer, wire::Buffer>> cases;
  LogBuffer b;
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
  const std::size_t payloads[] = {1, 1, 0, 0, 1};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [got, want] = cases[i];
    EXPECT_EQ(got.flatten(), want) << "record type " << i + 1;
    EXPECT_EQ(got.size(), want.size()) << "record type " << i + 1;
    EXPECT_EQ(got.slices().size(), payloads[i]) << "record type " << i + 1;
    EXPECT_EQ(got.bytes().size() + payloads[i], want.size())
        << "record type " << i + 1;  // each payload here is one byte
    EXPECT_EQ(got.bytes().capacity(), got.bytes().size())
        << "record type " << i + 1;
    EXPECT_EQ(got.slices().capacity(), got.slices().size())
        << "record type " << i + 1;
    // The flat form of the same bytes scans to the same record.
    WalScanResult sliced_r;
    WalScanResult flat_r;
    EXPECT_EQ(scan_all(got, &sliced_r).size(), 1u);
    EXPECT_EQ(scan_all(flat(got), &flat_r).size(), 1u);
    EXPECT_EQ(sliced_r.valid_bytes, want.size());
    EXPECT_EQ(flat_r.valid_bytes, want.size());
  }
}

TEST(WalCodec, OutcomeOnlyCommitIsTheCommitLayoutWithNoUpdates) {
  // A participant's lazy commit record: tx and commit ts, then an empty
  // update list, so it decodes as a kCommit whose writes are elsewhere.
  LogBuffer b;
  encode_commit(b, TxId{2, 11}, /*commit_ts=*/130, WalUpdates{});
  const wire::Buffer want{
      0x0a, 0x00, 0x00, 0x00,  // rest_len = 1 + 5 + 4
      0x02,                    // kCommit
      0x02, 0x0b,              // tx
      0x82, 0x01,              // commit_ts = 130
      0x00,                    // no updates
      0xf7, 0x54, 0x08, 0xbf,  // checksum
  };
  EXPECT_EQ(b.flatten(), want);
  EXPECT_TRUE(b.slices().empty());

  const auto records = scan_all(b);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCommit);
  EXPECT_EQ(records[0].tx, (TxId{2, 11}));
  EXPECT_EQ(records[0].ts, 130u);
  EXPECT_TRUE(records[0].updates.empty());
}

TEST(WalCodec, ScanRecoversExactlyTheCompleteFramePrefix) {
  LogBuffer sliced;
  encode_abort(sliced, TxId{1, 1});
  encode_abort(sliced, TxId{1, 2});
  const std::size_t two = sliced.size();
  encode_commit(sliced, TxId{1, 3}, 10, two_updates());
  const wire::Buffer log = sliced.flatten();

  // Truncate anywhere inside the third frame: exactly two records survive.
  for (std::size_t cut = two + 1; cut < log.size(); ++cut) {
    const LogBuffer torn(wire::Buffer(log.begin(), log.begin() + cut));
    WalScanResult r;
    const auto records = scan_all(torn, &r);
    ASSERT_EQ(records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, two);
    EXPECT_TRUE(r.torn);
  }
}

TEST(WalCodec, ScanStopsAtABitFlip) {
  LogBuffer log;
  encode_abort(log, TxId{1, 1});
  const std::size_t one = log.size();
  encode_commit(log, TxId{1, 2}, 10, two_updates());
  encode_abort(log, TxId{1, 3});

  wire::Buffer flipped = log.flatten();
  flipped[one + 7] ^= 0x10;  // inside the second frame's body
  WalScanResult r;
  const auto records = scan_all(LogBuffer(flipped), &r);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, one);
  EXPECT_TRUE(r.torn);
}

/// A flat frame around `tagged` (a type tag and a body) with a valid
/// length prefix and checksum, so the bytes reach the body decoder.
LogBuffer sealed(const wire::Buffer& tagged) {
  wire::Buffer log;
  wire::Writer w(log);
  w.u32le(static_cast<std::uint32_t>(tagged.size() + 4));
  log.insert(log.end(), tagged.begin(), tagged.end());
  w.u32le(wire::checksum32(tagged.data(), tagged.size()));
  return LogBuffer(std::move(log));
}

TEST(WalCodec, ScanRejectsAChecksummedButMalformedBody) {
  // A frame whose checksum is valid but whose body is garbage for its type
  // must stop the scan (defense against logic bugs, not just bit rot).
  wire::Buffer payload;
  wire::Writer w(payload);
  w.u8(static_cast<std::uint8_t>(WalRecordType::kCommit));
  w.u8(0xff);  // not a decodable commit body

  WalScanResult r;
  const auto records = scan_all(sealed(payload), &r);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.torn);
}

TEST(WalCodec, NonCanonicalTxIdNodeIsRejected) {
  // tx.node rides a u64 varint but NodeId is 32-bit: a checksummed record
  // whose node is past UINT32_MAX is malformed, not another transaction.
  // Log bytes come from outside the program too: --wal-dir adopts the
  // files it finds.
  const auto abort_of = [](std::uint64_t node) {
    wire::Buffer body;
    wire::Writer w(body);
    w.u8(static_cast<std::uint8_t>(WalRecordType::kAbort));
    w.varint(node);  // tx.node
    w.varint(5);     // tx.seq
    return sealed(body);
  };
  WalScanResult r;
  const auto widest = scan_all(abort_of(0xffffffffu), &r);
  ASSERT_EQ(widest.size(), 1u);
  EXPECT_EQ(widest[0].tx, (TxId{0xffffffffu, 5}));

  EXPECT_TRUE(scan_all(abort_of(std::uint64_t{1} << 32), &r).empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.torn);
  EXPECT_TRUE(scan_all(abort_of(std::uint64_t{1} << 40), &r).empty());
  EXPECT_TRUE(r.torn);
}

TEST(WalCodec, ForgedCountsAreRejectedBeforeReserving) {
  // A count the record's bytes cannot hold is rejected before anything is
  // reserved for it: at 2^60 a reservation would throw.
  for (const auto type : {WalRecordType::kPrepare, WalRecordType::kCommit,
                          WalRecordType::kCheckpoint}) {
    wire::Buffer body;
    wire::Writer w(body);
    w.u8(static_cast<std::uint8_t>(type));
    if (type != WalRecordType::kCheckpoint) {
      w.varint(1);  // tx.node
      w.varint(2);  // tx.seq
    }
    w.varint(3);  // rs, commit ts or watermark
    if (type == WalRecordType::kPrepare) w.varint(4);  // proposed ts
    w.varint(std::uint64_t{1} << 60);                  // the forged count
    w.varint(7);                                       // one key
    w.u8(0);                                           // without a value
    WalScanResult r;
    EXPECT_TRUE(scan_all(sealed(body), &r).empty())
        << "type " << static_cast<int>(type);
    EXPECT_TRUE(r.torn);
  }
}

/// Every record type, holding its payloads by reference.
std::vector<LogBuffer> sample_records() {
  std::vector<LogBuffer> out(5);
  encode_prepare(out[0], TxId{2, 11}, 100, 300,
                 {{7, val("payload")}, {9, nullptr}, {11, val("")}});
  encode_commit(out[1], TxId{2, 11}, 130, two_updates());
  encode_abort(out[2], TxId{3, 5});
  encode_decision(out[3], TxId{2, 11}, 130, 140);
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 50, VersionState::Committed, TxId{1, 1}, val("x")});
  snap.push_back({8, 60, VersionState::PreCommitted, TxId{4, 2}, nullptr});
  snap.push_back({9, 70, VersionState::LocalCommitted, TxId{5, 3},
                  val("checkpointed")});
  encode_checkpoint(out[4], 45, snap);
  return out;
}

/// `record` (one frame) with `flips` random bits of its non-payload type
/// and body bytes flipped, its slices kept where they were and its
/// checksum resealed over the logical bytes, so the mutation reaches the
/// body decoder.
LogBuffer resealed_mutation(const LogBuffer& record, Rng& rng,
                            std::uint64_t flips) {
  wire::Buffer bytes = record.bytes();
  const std::size_t body = wire::kFrameLenBytes;
  const std::size_t body_end = bytes.size() - wire::kFrameChecksumBytes;
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::uint64_t bit = rng.uniform((body_end - body) * 8);
    bytes[body + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  LogBuffer out;
  std::uint8_t* at = out.extend(bytes.size());
  std::copy(bytes.begin(), bytes.end(), at);
  for (const PayloadSlice& s : record.slices()) out.put_payload(s.at, s.value);
  std::uint32_t crc = 0;
  LogCursor(out, body, 0).walk(
      out.size() - body - wire::kFrameChecksumBytes,
      [&crc](const std::uint8_t* p, std::size_t n) {
        crc = wire::checksum32(p, n, crc);
      });
  for (int i = 0; i < 4; ++i) {
    at[body_end + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return out;
}

/// The values a record carries, in order ("-" for an absent one).
std::vector<std::string> values_of(const WalRecord& rec) {
  std::vector<std::string> out;
  const auto add = [&out](const SharedValue& v) {
    out.push_back(v ? "+" + *v : "-");
  };
  for (const auto& [key, value] : rec.updates) add(value);
  for (const CheckpointVersion& v : rec.snapshot) add(v.value);
  return out;
}

TEST(WalFuzz, ResealedMutationsDecodeTheirOwnBytesOrStopTheScan) {
  // Mutations re-sealed with a valid checksum reach the record decoder, in
  // both of a log's forms: payloads held as slices, and the same logical
  // bytes flat (a --wal-dir file read back). Each scan must either decode
  // the one record whole or stop at it, reserve no more list entries than
  // the record's bytes can hold, and never touch memory it does not own
  // (CI runs this under ASan/UBSan). A record the sliced form accepts is
  // its own bytes: the flat form decodes it to the same fields.
  Rng rng(0xa11);
  const std::vector<LogBuffer> records = sample_records();
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const LogBuffer& pristine = records[rng.uniform(records.size())];
    const LogBuffer sliced = resealed_mutation(pristine, rng, rng.uniform(4));
    const std::size_t size = sliced.size();
    std::vector<WalRecord> forms[2];
    WalScanResult scans[2];
    forms[0] = scan_all(sliced, &scans[0]);
    forms[1] = scan_all(flat(sliced), &scans[1]);
    for (int form = 0; form < 2; ++form) {
      const WalScanResult& r = scans[form];
      ASSERT_LE(forms[form].size(), 1u) << i;
      ASSERT_EQ(r.records, forms[form].size()) << i;
      ASSERT_EQ(r.torn, forms[form].empty()) << i;
      ASSERT_EQ(r.valid_bytes, forms[form].empty() ? 0 : size) << i;
      for (const WalRecord& rec : forms[form]) {
        EXPECT_LE(rec.updates.capacity(), size / 2) << i;
        EXPECT_LE(rec.snapshot.capacity(), size) << i;
      }
    }
    if (forms[0].empty()) {
      ++rejected;
      continue;
    }
    ++decoded;
    ASSERT_EQ(forms[1].size(), 1u) << i;
    const WalRecord& a = forms[0][0];
    const WalRecord& b = forms[1][0];
    EXPECT_EQ(keys_of(forms[0]), keys_of(forms[1])) << i;
    EXPECT_EQ(a.rs, b.rs) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(values_of(a), values_of(b)) << i;
  }
  EXPECT_GT(decoded, 1000);
  EXPECT_GT(rejected, 1000);
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
    LogBuffer frame;
    encode_abort(frame, tx);
    return wal->append(std::move(frame), std::move(cb));
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

  LogBuffer ckpt;
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

TEST(Wal, AppendedSinceCheckpointLeavesOutTheImage) {
  // What maintenance compares with checkpoint_min_bytes: the bytes after
  // the log's leading checkpoint, through a crash that tears a sync, the
  // replay that truncates it, and a replay of the log adopted whole.
  Rng rng(3);
  WalFixture f(/*batch=*/2, msec(2), msec(5), TornWriteFault{1.0, &rng});
  f.append_abort(TxId{1, 1});
  f.append_abort(TxId{1, 2});
  f.sched.run_until(msec(10));
  ASSERT_TRUE(f.wal->idle());
  EXPECT_EQ(f.wal->appended_since_checkpoint(), f.wal->end_offset());

  LogBuffer ckpt;
  std::vector<CheckpointVersion> snap;
  snap.push_back({1, 10, VersionState::Committed, TxId{1, 1}, val("v")});
  encode_checkpoint(ckpt, /*watermark=*/9, snap);
  const std::uint64_t image = ckpt.size();
  f.wal->rewrite(std::move(ckpt));
  EXPECT_EQ(f.wal->appended_since_checkpoint(), 0u);

  f.append_abort(TxId{2, 1});
  const std::uint64_t synced = f.append_abort(TxId{2, 2});
  f.sched.run_until(msec(20));
  ASSERT_TRUE(f.wal->idle());
  EXPECT_EQ(f.wal->appended_since_checkpoint(), synced - image);

  f.append_abort(TxId{2, 3});
  f.append_abort(TxId{2, 4});  // its sync is in flight at the crash
  f.wal->crash();
  const WalScanResult r = f.wal->replay(nullptr);
  EXPECT_GE(r.valid_bytes, synced);
  EXPECT_EQ(f.wal->appended_since_checkpoint(), r.valid_bytes - image);

  // Adopted whole, as a log file is read back, the log counts every byte
  // until replay re-reads its leading checkpoint.
  auto medium = std::make_unique<SimMedium>(&f.sched, msec(1),
                                            TornWriteFault{});
  medium->reset_durable(LogBuffer(concat(f.wal->medium().durable_chunks())));
  Wal adopted(f.sched, std::move(medium), f.options, Wal::Counters{});
  EXPECT_EQ(adopted.appended_since_checkpoint(), r.valid_bytes);
  adopted.replay(nullptr);
  EXPECT_EQ(adopted.appended_since_checkpoint(), r.valid_bytes - image);

  // A rewrite that installs no checkpoint (decision-log compaction)
  // leaves nothing out.
  LogBuffer compacted;
  encode_decision(compacted, TxId{3, 1}, 70, 80);
  const std::uint64_t kept = compacted.size();
  f.wal->rewrite(std::move(compacted));
  EXPECT_EQ(f.wal->appended_since_checkpoint(), kept);
  f.wal->replay(nullptr);
  EXPECT_EQ(f.wal->appended_since_checkpoint(), kept);
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

/// What one run of the chunked-log scenario left behind.
struct TornLog {
  wire::Buffer durable;           ///< the log's bytes after the crash
  std::size_t chunks = 0;         ///< durable chunks after the crash
  bool tail_clean = false;        ///< the torn tail kept an unflipped prefix
  WalScanResult scan;             ///< chunked scan after the crash
  std::vector<RecordKey> records;
  wire::Buffer replayed;          ///< the log's bytes after replay
  std::uint64_t next_draw = 0;    ///< the fault stream's next draw after it
};

/// Several syncs, a checkpoint rewrite in the middle, more syncs, then a
/// crash that tears the last one. `sliced` appends frames as the encoders
/// write them, payloads by reference; otherwise every frame is appended
/// flat. Whatever the tear kept (a clean prefix or one with a flipped bit),
/// the chunk list must scan to the same records and valid_bytes as its
/// concatenation, and replay must truncate to that prefix.
TornLog tear_chunked_log(std::uint64_t seed, bool sliced) {
  TornLog out;
  Rng rng(seed);
  WalFixture f(/*batch=*/3, msec(2), /*fsync=*/msec(1),
               TornWriteFault{1.0, &rng});
  auto append = [&](LogBuffer frame) {
    f.wal->append(sliced ? std::move(frame) : flat(frame));
  };
  auto commit = [&](std::uint64_t seq) {
    LogBuffer frame;
    encode_commit(frame, TxId{1, seq}, seq, two_updates());
    append(std::move(frame));
  };
  for (std::uint64_t i = 1; i <= 6; ++i) commit(i);  // two syncs
  f.sched.run_until(f.sched.now() + msec(10));
  EXPECT_TRUE(f.wal->idle());

  LogBuffer ckpt;
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 6, VersionState::Committed, TxId{1, 6}, val("a")});
  encode_checkpoint(ckpt, /*watermark=*/5, snap);
  f.wal->rewrite(sliced ? std::move(ckpt) : flat(ckpt));

  for (std::uint64_t i = 7; i <= 12; ++i) {
    commit(i);
    LogBuffer abort;
    encode_abort(abort, TxId{2, i});
    append(std::move(abort));
  }
  f.sched.run_until(f.sched.now() + msec(10));
  EXPECT_TRUE(f.wal->idle());
  const std::size_t whole = f.wal->medium().durable_size();

  // The last sync: in flight when the crash hits.
  wire::Buffer last;
  for (std::uint64_t i = 13; i <= 15; ++i) {
    LogBuffer frame;
    encode_commit(frame, TxId{1, i}, i, two_updates());
    const wire::Buffer bytes = frame.flatten();
    last.insert(last.end(), bytes.begin(), bytes.end());
    append(std::move(frame));
  }
  EXPECT_TRUE(f.wal->medium().sync_in_flight());
  f.wal->crash();
  out.next_draw = rng.next();

  const DurableChunks& chunks = f.wal->medium().durable_chunks();
  out.chunks = chunks.size();
  const LogBuffer& tail = chunks.back();
  EXPECT_EQ(f.wal->medium().durable_size(), whole + tail.size());
  EXPECT_GE(tail.size(), 1u);
  EXPECT_TRUE(tail.slices().empty());  // a torn tail is flat
  const wire::Buffer tail_bytes = tail.flatten();
  out.tail_clean = std::equal(tail_bytes.begin(), tail_bytes.end(),
                              last.begin());

  out.durable = concat(chunks);
  WalScanResult flat_r;
  const auto flat_records = scan_all(LogBuffer(out.durable), &flat_r);
  out.records = keys_of(scan_all(chunks, &out.scan));
  EXPECT_EQ(out.scan.valid_bytes, flat_r.valid_bytes);
  EXPECT_EQ(out.scan.records, flat_r.records);
  EXPECT_EQ(out.scan.torn, flat_r.torn);
  EXPECT_EQ(out.records, keys_of(flat_records));
  EXPECT_GE(out.scan.valid_bytes, whole);  // the tear stays in the tail
  EXPECT_EQ(f.wal->durable_prefix(), flat_r.valid_bytes);

  const WalScanResult replayed = f.wal->replay(nullptr);
  EXPECT_EQ(replayed.valid_bytes, flat_r.valid_bytes);
  out.replayed = concat(f.wal->medium().durable_chunks());
  EXPECT_EQ(out.replayed,
            wire::Buffer(out.durable.begin(),
                         out.durable.begin() +
                             static_cast<std::ptrdiff_t>(flat_r.valid_bytes)));
  EXPECT_EQ(f.wal->end_offset(), flat_r.valid_bytes);
  return out;
}

TEST(WalChunks, ChunkedLogScansAndTruncatesLikeItsConcatenation) {
  // Each seed runs twice: with sliced frames and with the same frames flat.
  // The sliced log keeps a chunk per sync (and the flat one coalesces its
  // syncs), yet both must leave the same bytes, draw the same torn tail
  // from the fault stream, and scan and replay alike.
  int flipped = 0;
  int clean = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TornLog sliced = tear_chunked_log(seed, /*sliced=*/true);
    const TornLog flat_log = tear_chunked_log(seed, /*sliced=*/false);
    EXPECT_EQ(sliced.chunks, 4u);  // checkpoint, two syncs, torn tail
    EXPECT_EQ(flat_log.chunks, 2u);
    EXPECT_EQ(sliced.durable, flat_log.durable);
    EXPECT_EQ(sliced.next_draw, flat_log.next_draw);
    EXPECT_EQ(sliced.tail_clean, flat_log.tail_clean);
    EXPECT_EQ(sliced.scan.valid_bytes, flat_log.scan.valid_bytes);
    EXPECT_EQ(sliced.scan.records, flat_log.scan.records);
    EXPECT_EQ(sliced.scan.torn, flat_log.scan.torn);
    EXPECT_EQ(sliced.records, flat_log.records);
    EXPECT_EQ(sliced.replayed, flat_log.replayed);
    ++(sliced.tail_clean ? clean : flipped);
  }
  EXPECT_GT(flipped, 0);
  EXPECT_GT(clean, 0);
}

// -- payloads held by reference ---------------------------------------------

TEST(WalPayloads, CheckpointImageHoldsItsPayloadsByReference) {
  std::vector<SharedValue> values;
  std::vector<CheckpointVersion> snap;
  std::size_t payload = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    values.push_back(val(std::string(100 + i, static_cast<char>('a' + i % 26))));
    payload += values.back()->size();
    snap.push_back({i, 10 + i, VersionState::Committed, TxId{1, i},
                    values.back()});
  }
  snap.push_back({99, 5, VersionState::PreCommitted, TxId{2, 1}, nullptr});

  LogBuffer image;
  encode_checkpoint(image, /*watermark=*/7, snap);
  ASSERT_EQ(image.slices().size(), values.size());
  EXPECT_EQ(image.bytes().size() + payload, image.size());
  for (const SharedValue& v : values) EXPECT_EQ(v.use_count(), 3);

  SimMedium medium(nullptr, /*fsync_latency=*/0, TornWriteFault{});
  const std::size_t non_payload = image.bytes().size();
  medium.reset_durable(std::move(image));
  for (const SharedValue& v : values) EXPECT_EQ(v.use_count(), 3);
  // The non-payload bytes, one slice per value and one chunk-list entry:
  // the payloads themselves are the store's.
  EXPECT_LE(medium.held_bytes(), non_payload +
                                     values.size() * sizeof(PayloadSlice) +
                                     sizeof(LogBuffer));
  EXPECT_LT(medium.held_bytes(), medium.durable_size());

  // Cutting the log releases the references with the frames.
  medium.truncate_durable(0);
  for (const SharedValue& v : values) EXPECT_EQ(v.use_count(), 2);
}

TEST(WalPayloads, ReplayDecodesASlicedValueToTheSamePayload) {
  WalFixture f(/*batch=*/1, msec(2), msec(1));
  const SharedValue committed = val("committed payload");
  const SharedValue empty = val("");
  LogBuffer frame;
  encode_commit(frame, TxId{1, 1}, 10, {{7, committed}, {8, empty}});
  f.wal->append(std::move(frame));
  f.sched.run_until(msec(10));

  std::vector<WalRecord> records;
  f.wal->replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].updates.size(), 2u);
  EXPECT_EQ(records[0].updates[0].second.get(), committed.get());
  EXPECT_EQ(records[0].updates[1].second.get(), empty.get());

  // A checkpoint's snapshot values alike.
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 10, VersionState::Committed, TxId{1, 1}, committed});
  LogBuffer ckpt;
  encode_checkpoint(ckpt, /*watermark=*/9, snap);
  const LogBuffer ckpt_flat = flat(ckpt);
  f.wal->rewrite(std::move(ckpt));
  records.clear();
  f.wal->replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].snapshot.size(), 1u);
  EXPECT_EQ(records[0].snapshot[0].value.get(), committed.get());

  // Flat bytes (a log file read back) decode to a copy of the payload.
  const auto copied = scan_all(ckpt_flat);
  ASSERT_EQ(copied.size(), 1u);
  EXPECT_NE(copied[0].snapshot[0].value.get(), committed.get());
  EXPECT_EQ(*copied[0].snapshot[0].value, *committed);
}

TEST(WalPayloads, TornTailNeverWritesThroughASharedPayload) {
  // Payload bytes dominate these frames, so most bit flips land in one.
  // The torn tail is flattened before its bit is flipped: the shared
  // payloads keep their bytes whatever the crash did to the log.
  int flips_in_payload = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    WalFixture f(/*batch=*/2, msec(2), /*fsync=*/msec(5),
                 TornWriteFault{1.0, &rng});
    const std::string text(1000, 'x');
    const WalUpdates updates = {{1, val(text)}, {2, val(text)}};
    wire::Buffer logged;
    for (std::uint64_t i = 1; i <= 2; ++i) {
      LogBuffer frame;
      encode_commit(frame, TxId{1, i}, i, updates);
      const wire::Buffer bytes = frame.flatten();
      logged.insert(logged.end(), bytes.begin(), bytes.end());
      f.wal->append(std::move(frame));
    }
    ASSERT_TRUE(f.wal->medium().sync_in_flight());
    f.wal->crash();
    for (const auto& [key, v] : updates) EXPECT_EQ(*v, text) << "seed " << seed;

    const wire::Buffer tail = concat(f.wal->medium().durable_chunks());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (tail[i] != logged[i] && logged[i] == 'x') ++flips_in_payload;
    }
  }
  EXPECT_GT(flips_in_payload, 0);
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
  // change: syncs (appended; slice-free ones coalesce into one chunk), a
  // torn crash (tail appended as its own chunk), the replay's truncation
  // and a rewrite (file replaced), then more syncs, one of them holding
  // payloads by reference (written from the shared payloads).
  const std::string path = testing::TempDir() + "wal_mirror_test.wal";
  std::remove(path.c_str());
  sim::Scheduler sched;
  Rng rng(2);
  auto decision = [](std::uint64_t seq) {
    LogBuffer frame;
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
    EXPECT_EQ(medium.durable_chunks().size(), 1u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));

    wal.append(decision(5));  // its sync is in flight at the crash
    wal.crash();
    EXPECT_EQ(medium.durable_chunks().size(), 2u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));
    EXPECT_TRUE(wal.replay(nullptr).torn);  // this seed tears the tail
    EXPECT_EQ(medium.durable_chunks().size(), 1u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));

    const LogBuffer compacted = decision(9);
    wal.rewrite(compacted);
    EXPECT_EQ(read_file(path), compacted.flatten());
    wal.append(decision(10));
    sched.run_until(sched.now() + msec(10));
    EXPECT_EQ(medium.durable_chunks().size(), 1u);
    EXPECT_EQ(read_file(path), concat(medium.durable_chunks()));

    LogBuffer commit;
    encode_commit(commit, TxId{3, 11}, 90, two_updates());
    wal.append(std::move(commit));
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
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kDecision);
  EXPECT_EQ(records[0].tx, (TxId{3, 9}));
  EXPECT_EQ(records[0].ts, 79u);
  EXPECT_EQ(records[1].tx, (TxId{3, 10}));
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
  ASSERT_EQ(records[2].updates.size(), 2u);
  EXPECT_EQ(*records[2].updates[1].second, "bb");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace str::storage
