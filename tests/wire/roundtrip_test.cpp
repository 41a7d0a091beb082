// Deterministic round-trip property tests: for every message type, random
// field contents (fixed seeds) must survive encode_frame -> decode_frame
// bit-exactly, and frame_size() must predict the encoded size exactly —
// that prediction is what closure-mode transport charges to the byte
// counters, so an off-by-one here would split the two transport modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>

#include "common/rng.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

constexpr int kItersPerType = 250;

// -- random field generators --------------------------------------------------

std::uint64_t rand_u64(Rng& rng) {
  // Mix magnitudes so varints of every length are exercised.
  switch (rng.uniform(4)) {
    case 0: return rng.uniform(2);
    case 1: return rng.uniform(0x100);
    case 2: return rng.uniform(0x100000);
    default: return rng.next();
  }
}

std::uint32_t rand_u32(Rng& rng) {
  return static_cast<std::uint32_t>(rand_u64(rng));
}

TxId rand_txid(Rng& rng) { return TxId{rand_u32(rng), rand_u64(rng)}; }

SharedValue rand_value(Rng& rng) {
  if (rng.chance(0.25)) return nullptr;
  std::string s(rng.uniform(200), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform(256));
  return std::make_shared<Value>(std::move(s));
}

protocol::SharedUpdates rand_updates(Rng& rng) {
  if (rng.chance(0.15)) return nullptr;
  auto list = std::make_shared<protocol::UpdateList>();
  const std::uint64_t n = rng.uniform(8);
  for (std::uint64_t i = 0; i < n; ++i) {
    list->emplace_back(rand_u64(rng), rand_value(rng));
  }
  return list;
}

// -- field equality (shared pointers compare by content) ----------------------

bool same_value(const SharedValue& a, const SharedValue& b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  return a == nullptr || *a == *b;
}

/// A null update list encodes as count 0 and decodes as an empty list;
/// treat the two as equal (receivers only ever iterate).
bool same_updates(const protocol::SharedUpdates& a,
                  const protocol::SharedUpdates& b) {
  const std::size_t na = a ? a->size() : 0;
  const std::size_t nb = b ? b->size() : 0;
  if (na != nb) return false;
  for (std::size_t i = 0; i < na; ++i) {
    if ((*a)[i].first != (*b)[i].first) return false;
    if (!same_value((*a)[i].second, (*b)[i].second)) return false;
  }
  return true;
}

bool same(const TxId& a, const TxId& b) {
  return a.node == b.node && a.seq == b.seq;
}

void expect_equal(const protocol::ReadRequest& a,
                  const protocol::ReadRequest& b) {
  EXPECT_TRUE(same(a.reader, b.reader));
  EXPECT_EQ(a.reader_node, b.reader_node);
  EXPECT_EQ(a.req_id, b.req_id);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.rs, b.rs);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::ReadReply& a, const protocol::ReadReply& b) {
  EXPECT_TRUE(same(a.reader, b.reader));
  EXPECT_EQ(a.req_id, b.req_id);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.found, b.found);
  EXPECT_TRUE(same_value(a.value, b.value));
  EXPECT_TRUE(same(a.writer, b.writer));
  EXPECT_EQ(a.version_ts, b.version_ts);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::PrepareRequest& a,
                  const protocol::PrepareRequest& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.coordinator, b.coordinator);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.rs, b.rs);
  EXPECT_TRUE(same_updates(a.updates, b.updates));
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::PrepareReply& a,
                  const protocol::PrepareReply& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.prepared, b.prepared);
  EXPECT_EQ(a.proposed_ts, b.proposed_ts);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::ReplicateRequest& a,
                  const protocol::ReplicateRequest& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.coordinator, b.coordinator);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.rs, b.rs);
  EXPECT_TRUE(same_updates(a.updates, b.updates));
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::CommitMessage& a,
                  const protocol::CommitMessage& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.commit_ts, b.commit_ts);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::AbortMessage& a,
                  const protocol::AbortMessage& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::DecisionRequest& a,
                  const protocol::DecisionRequest& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::DecisionReply& a,
                  const protocol::DecisionReply& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.commit_ts, b.commit_ts);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::DecisionReplicate& a,
                  const protocol::DecisionReplicate& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.commit_ts, b.commit_ts);
  EXPECT_EQ(a.decided_at, b.decided_at);
  EXPECT_EQ(a.tspan, b.tspan);
}

void expect_equal(const protocol::DecisionReplicateAck& a,
                  const protocol::DecisionReplicateAck& b) {
  EXPECT_TRUE(same(a.tx, b.tx));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.commit_ts, b.commit_ts);
  EXPECT_EQ(a.tspan, b.tspan);
}

/// What encode_body writes for `m`, counted in storage with room to spare:
/// frames are sized by body_size, so it must predict this exactly.
template <class M>
std::size_t written_body_size(const M& m) {
  Buffer slack(body_size(m) + 64);
  FrameSink w(slack.data(), slack.data() + slack.size());
  encode_body(w, m);
  return static_cast<std::size_t>(w.position() - slack.data());
}

template <class M>
void roundtrip_many(std::uint64_t seed, M (*make)(Rng&)) {
  Rng rng(seed);
  PayloadTable payloads;
  for (int i = 0; i < kItersPerType; ++i) {
    const M in = make(rng);
    ASSERT_EQ(written_body_size(in), body_size(in)) << "iter " << i;
    const Buffer frame = encode_frame(in);
    AnyMessage out;
    ASSERT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
              DecodeStatus::kOk)
        << "iter " << i;
    ASSERT_TRUE(std::holds_alternative<M>(out)) << "iter " << i;
    expect_equal(std::get<M>(out), in);
  }
}

TEST(RoundTrip, ReadRequest) {
  roundtrip_many<protocol::ReadRequest>(0x5717a1, +[](Rng& rng) {
    return protocol::ReadRequest{rand_txid(rng), rand_u32(rng), rand_u64(rng),
                                 rand_u64(rng), rand_u64(rng),
                                 rand_u64(rng)};
  });
}

TEST(RoundTrip, ReadReply) {
  roundtrip_many<protocol::ReadReply>(0x5717a2, +[](Rng& rng) {
    protocol::ReadReply m;
    m.reader = rand_txid(rng);
    m.req_id = rand_u64(rng);
    m.key = rand_u64(rng);
    m.found = rng.chance(0.5);
    m.value = rand_value(rng);
    m.writer = rand_txid(rng);
    m.version_ts = rand_u64(rng);
    m.tspan = rand_u64(rng);
    return m;
  });
}

TEST(RoundTrip, PrepareRequest) {
  roundtrip_many<protocol::PrepareRequest>(0x5717a3, +[](Rng& rng) {
    return protocol::PrepareRequest{rand_txid(rng), rand_u32(rng),
                                    rand_u32(rng), rand_u64(rng),
                                    rand_updates(rng), rand_u64(rng)};
  });
}

TEST(RoundTrip, PrepareReply) {
  roundtrip_many<protocol::PrepareReply>(0x5717a4, +[](Rng& rng) {
    return protocol::PrepareReply{rand_txid(rng), rand_u32(rng), rand_u32(rng),
                                  rng.chance(0.5), rand_u64(rng),
                                  rand_u64(rng)};
  });
}

TEST(RoundTrip, ReplicateRequest) {
  roundtrip_many<protocol::ReplicateRequest>(0x5717a5, +[](Rng& rng) {
    return protocol::ReplicateRequest{rand_txid(rng), rand_u32(rng),
                                      rand_u32(rng), rand_u64(rng),
                                      rand_updates(rng), rand_u64(rng)};
  });
}

TEST(RoundTrip, CommitMessage) {
  roundtrip_many<protocol::CommitMessage>(0x5717a6, +[](Rng& rng) {
    return protocol::CommitMessage{rand_txid(rng), rand_u32(rng),
                                   rand_u64(rng), rand_u64(rng)};
  });
}

TEST(RoundTrip, AbortMessage) {
  roundtrip_many<protocol::AbortMessage>(0x5717a7, +[](Rng& rng) {
    return protocol::AbortMessage{rand_txid(rng), rand_u32(rng),
                                  rand_u64(rng)};
  });
}

TEST(RoundTrip, DecisionRequest) {
  roundtrip_many<protocol::DecisionRequest>(0x5717a8, +[](Rng& rng) {
    return protocol::DecisionRequest{rand_txid(rng), rand_u32(rng),
                                     rand_u32(rng), rand_u64(rng)};
  });
}

TEST(RoundTrip, DecisionReply) {
  roundtrip_many<protocol::DecisionReply>(0x5717a9, +[](Rng& rng) {
    return protocol::DecisionReply{
        rand_txid(rng), rand_u32(rng),
        static_cast<protocol::TxDecision>(rng.uniform(3)), rand_u64(rng),
        rand_u64(rng)};
  });
}

TEST(RoundTrip, DecisionReplicate) {
  roundtrip_many<protocol::DecisionReplicate>(0x5717aa, +[](Rng& rng) {
    protocol::DecisionReplicate m;
    m.tx = rand_txid(rng);
    m.origin = rand_u32(rng);
    m.commit_ts = rand_u64(rng);
    m.decided_at = rand_u64(rng);
    m.tspan = rand_u64(rng);
    return m;
  });
}

TEST(RoundTrip, DecisionReplicateAck) {
  roundtrip_many<protocol::DecisionReplicateAck>(0x5717ab, +[](Rng& rng) {
    protocol::DecisionReplicateAck m;
    m.tx = rand_txid(rng);
    m.partition = rand_u32(rng);
    m.from = rand_u32(rng);
    m.kind = static_cast<protocol::DecisionAckKind>(rng.uniform(3));
    m.commit_ts = rand_u64(rng);
    m.tspan = rand_u64(rng);
    return m;
  });
}

// -- layout pin ---------------------------------------------------------------

TEST(RoundTrip, FrameLayoutIsPinned) {
  // Hand-built expected bytes for the smallest message. If this test
  // breaks, the wire format changed: bump the versioning notes in
  // docs/WIRE.md and make sure that was intentional.
  const protocol::AbortMessage m{TxId{1, 2}, 3};
  const Buffer frame = encode_frame(m);
  Buffer expected = {
      0x08, 0x00, 0x00, 0x00,  // rest_len = 1 (type) + 3 (body) + 4 (cksum)
      0x07,                    // tag: kAbort
      0x01, 0x02, 0x03,        // varints: tx.node, tx.seq, partition
  };
  const std::uint32_t ck = checksum32(expected.data() + 4, 4);
  expected.push_back(static_cast<std::uint8_t>(ck));
  expected.push_back(static_cast<std::uint8_t>(ck >> 8));
  expected.push_back(static_cast<std::uint8_t>(ck >> 16));
  expected.push_back(static_cast<std::uint8_t>(ck >> 24));
  EXPECT_EQ(frame, expected);
}

TEST(RoundTrip, TraceContextLayoutIsPinned) {
  // The trace-context span id rides as an optional trailing varint: absent
  // when zero (so untraced frames are bit-identical to the pre-tspan
  // format, pinned above), a single nonzero varint otherwise.
  const protocol::AbortMessage m{TxId{1, 2}, 3, 5};
  const Buffer frame = encode_frame(m);
  Buffer expected = {
      0x09, 0x00, 0x00, 0x00,  // rest_len = 1 (type) + 4 (body) + 4 (cksum)
      0x07,                    // tag: kAbort
      0x01, 0x02, 0x03, 0x05,  // varints: tx.node, tx.seq, partition, tspan
  };
  const std::uint32_t ck = checksum32(expected.data() + 4, 5);
  expected.push_back(static_cast<std::uint8_t>(ck));
  expected.push_back(static_cast<std::uint8_t>(ck >> 8));
  expected.push_back(static_cast<std::uint8_t>(ck >> 16));
  expected.push_back(static_cast<std::uint8_t>(ck >> 24));
  EXPECT_EQ(frame, expected);
  // An explicit zero tspan varint is non-canonical and must be rejected —
  // otherwise two byte strings would decode to the same message.
  Buffer bad = {
      0x09, 0x00, 0x00, 0x00,
      0x07,
      0x01, 0x02, 0x03, 0x00,  // trailing zero varint
  };
  const std::uint32_t bad_ck = checksum32(bad.data() + 4, 5);
  bad.push_back(static_cast<std::uint8_t>(bad_ck));
  bad.push_back(static_cast<std::uint8_t>(bad_ck >> 8));
  bad.push_back(static_cast<std::uint8_t>(bad_ck >> 16));
  bad.push_back(static_cast<std::uint8_t>(bad_ck >> 24));
  AnyMessage out;
  PayloadTable payloads;
  EXPECT_EQ(decode_frame(bad.data(), bad.size(), out, payloads),
            DecodeStatus::kBadBody);
}

TEST(RoundTrip, DecisionReplicateLayoutIsPinned) {
  // The quorum fan-out frames are part of the stable wire format from the
  // day they shipped: docs/WIRE.md and docs/DURABILITY.md §8 quote these
  // bytes. Layout: txid, origin, commit_ts, decided_at varints; the tspan
  // trailer follows the same absent-when-zero rule as every other frame.
  protocol::DecisionReplicate m;
  m.tx = TxId{1, 2};
  m.origin = 3;
  m.commit_ts = 4;
  m.decided_at = 5;
  const Buffer frame = encode_frame(m);
  Buffer expected = {
      0x0a, 0x00, 0x00, 0x00,        // rest_len = 1 + 5 (body) + 4 (cksum)
      0x0a,                          // tag: kDecisionReplicate
      0x01, 0x02, 0x03, 0x04, 0x05,  // tx.node, tx.seq, origin, ct, decided_at
  };
  const std::uint32_t ck = checksum32(expected.data() + 4, 6);
  expected.push_back(static_cast<std::uint8_t>(ck));
  expected.push_back(static_cast<std::uint8_t>(ck >> 8));
  expected.push_back(static_cast<std::uint8_t>(ck >> 16));
  expected.push_back(static_cast<std::uint8_t>(ck >> 24));
  EXPECT_EQ(frame, expected);
}

TEST(RoundTrip, DecisionReplicateAckLayoutIsPinned) {
  // Layout: txid, partition, from varints, a one-byte kind (the same strict
  // enum rule as DecisionReply.decision), commit_ts varint, tspan trailer.
  protocol::DecisionReplicateAck m;
  m.tx = TxId{1, 2};
  m.partition = 3;
  m.from = 4;
  m.kind = protocol::DecisionAckKind::kCommitted;
  m.commit_ts = 5;
  const Buffer frame = encode_frame(m);
  Buffer expected = {
      0x0b, 0x00, 0x00, 0x00,  // rest_len = 1 + 6 (body) + 4 (cksum)
      0x0b,                    // tag: kDecisionReplicateAck
      0x01, 0x02, 0x03, 0x04,  // tx.node, tx.seq, partition, from
      0x01,                    // kind: kCommitted
      0x05,                    // commit_ts
  };
  const std::uint32_t ck = checksum32(expected.data() + 4, 7);
  expected.push_back(static_cast<std::uint8_t>(ck));
  expected.push_back(static_cast<std::uint8_t>(ck >> 8));
  expected.push_back(static_cast<std::uint8_t>(ck >> 16));
  expected.push_back(static_cast<std::uint8_t>(ck >> 24));
  EXPECT_EQ(frame, expected);
}

// -- size audit ---------------------------------------------------------------

TEST(RoundTrip, ExactSizesVsRetiredSizeHints) {
  // Before the wire subsystem, NetworkStats.bytes_sent summed per-struct
  // wire_size() estimates (fixed constants + payload). This pins the exact
  // encoded sizes for the same representative messages docs/WIRE.md audits,
  // so the delta table there stays honest.
  auto updates = std::make_shared<protocol::UpdateList>();
  for (int i = 0; i < 4; ++i) {
    updates->emplace_back(0x1000 + i,
                          std::make_shared<Value>(std::string(64, 'v')));
  }
  const SharedValue val = std::make_shared<Value>(std::string(64, 'x'));
  const TxId tx{3, 0x1234};

  struct Row {
    const char* name;
    std::size_t exact;
    std::size_t old_hint;
  };
  protocol::ReadReply rr;
  rr.reader = tx;
  rr.req_id = 42;
  rr.key = 0xabcdef;
  rr.found = true;
  rr.value = val;
  rr.writer = TxId{5, 0x99};
  rr.version_ts = usec(7'000'000);
  const Row rows[] = {
      {"read_request",
       frame_size(protocol::ReadRequest{tx, 3, 42, 0xabcdef, usec(7'100'000)}),
       48},
      {"read_reply", frame_size(rr), 56 + 64},
      {"prepare_request",
       frame_size(protocol::PrepareRequest{tx, 3, 2, usec(7'100'000), updates}),
       48 + 16 * 4 + 64 * 4},
      {"prepare_reply",
       frame_size(protocol::PrepareReply{tx, 2, 6, true, usec(7'200'000)}), 40},
      {"commit", frame_size(protocol::CommitMessage{tx, 2, usec(7'300'000)}),
       32},
      {"abort", frame_size(protocol::AbortMessage{tx, 2}), 24},
      {"decision_request", frame_size(protocol::DecisionRequest{tx, 2, 6}), 28},
      {"decision_reply",
       frame_size(protocol::DecisionReply{tx, 2,
                                          protocol::TxDecision::Committed,
                                          usec(7'300'000)}),
       33},
  };
  for (const Row& row : rows) {
    // Varint encoding beats every retired fixed-size estimate for these
    // representative messages — the estimates padded for headers the
    // simulator never modeled.
    EXPECT_LT(row.exact, row.old_hint) << row.name;
  }
  // Pin the exact sizes of the fixed-payload messages (64-byte values, 4
  // updates). docs/WIRE.md quotes these numbers.
  EXPECT_EQ(rows[0].exact, 22u);  // read_request
  EXPECT_EQ(rows[1].exact, 91u);  // read_reply
  EXPECT_EQ(rows[2].exact, 291u);  // prepare_request
  EXPECT_EQ(rows[3].exact, 19u);  // prepare_reply
  EXPECT_EQ(rows[4].exact, 17u);  // commit
  EXPECT_EQ(rows[5].exact, 13u);  // abort
  EXPECT_EQ(rows[6].exact, 14u);  // decision_request
  EXPECT_EQ(rows[7].exact, 18u);  // decision_reply

  // The quorum frames postdate the retired estimates (no old hint to beat);
  // pin their exact sizes for the docs/WIRE.md audit table.
  protocol::DecisionReplicate drep;
  drep.tx = tx;
  drep.origin = 6;
  drep.commit_ts = usec(7'300'000);
  drep.decided_at = usec(7'300'100);
  EXPECT_EQ(frame_size(drep), 21u);  // decision_replicate
  protocol::DecisionReplicateAck dack;
  dack.tx = tx;
  dack.partition = 2;
  dack.from = 6;
  dack.kind = protocol::DecisionAckKind::kCommitted;
  dack.commit_ts = usec(7'300'000);
  EXPECT_EQ(frame_size(dack), 19u);  // decision_replicate_ack
}

}  // namespace
}  // namespace str::wire
