// Decoder fuzz smoke: decode_frame over adversarial input — random bytes,
// truncations, single-bit flips, forged counts — must reject cleanly and
// never read out of bounds. CI runs this binary under ASan/UBSan, which is
// what turns "never crashes" into "never touches bad memory".
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "wire/assembler.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

/// Every message type, with payload-bearing fields populated.
std::vector<Buffer> sample_frames() {
  const TxId tx{3, 0x1234};
  auto updates = std::make_shared<protocol::UpdateList>();
  updates->emplace_back(0x1000, std::make_shared<Value>("payload"));
  updates->emplace_back(0x2000, nullptr);
  protocol::ReadReply rr;
  rr.reader = tx;
  rr.req_id = 7;
  rr.key = 9;
  rr.found = true;
  rr.value = std::make_shared<Value>("value-bytes");
  rr.writer = TxId{1, 2};
  rr.version_ts = 55;
  protocol::DecisionReplicate drep;
  drep.tx = tx;
  drep.origin = 3;
  drep.commit_ts = 400;
  drep.decided_at = 410;
  return {
      encode_frame(protocol::ReadRequest{tx, 3, 42, 0xabcdef, 100}),
      encode_frame(rr),
      encode_frame(protocol::PrepareRequest{tx, 3, 2, 100, updates}),
      encode_frame(protocol::PrepareReply{tx, 2, 6, true, 200}),
      encode_frame(protocol::ReplicateRequest{tx, 3, 2, 100, updates}),
      encode_frame(protocol::CommitMessage{tx, 2, 300}),
      encode_frame(protocol::AbortMessage{tx, 2}),
      encode_frame(protocol::DecisionRequest{tx, 2, 6}),
      encode_frame(protocol::DecisionReply{
          tx, 2, protocol::TxDecision::Committed, 300, 5}),
      encode_frame(drep),
      encode_frame(protocol::DecisionReplicateAck{tx, 5}),
  };
}

/// Wrap an arbitrary (tag, body) into a frame with a VALID length prefix
/// and checksum, so the input penetrates past the integrity checks and
/// exercises the body parsers themselves.
Buffer forge_frame(std::uint8_t tag, const Buffer& body) {
  Buffer out;
  Writer w(out);
  w.u32le(static_cast<std::uint32_t>(kFrameTypeBytes + body.size() +
                                     kFrameChecksumBytes));
  w.u8(tag);
  out.insert(out.end(), body.begin(), body.end());
  w.u32le(checksum32(out.data() + kFrameLenBytes,
                     out.size() - kFrameLenBytes));
  return out;
}

TEST(FuzzSmoke, RandomBuffersNeverDecodeAndNeverCrash) {
  PayloadTable payloads;
  Rng rng(0xf022);
  bool saw_too_short = false;
  bool saw_bad_length = false;
  for (int i = 0; i < 20000; ++i) {
    Buffer buf(rng.uniform(128), 0);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
    AnyMessage out;
    const DecodeStatus s =
        decode_frame(buf.data(), buf.size(), out, payloads);
    // A random length prefix matches the buffer size with probability
    // 2^-32: with these fixed seeds, never.
    EXPECT_NE(s, DecodeStatus::kOk);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(out));
    saw_too_short |= s == DecodeStatus::kTooShort;
    saw_bad_length |= s == DecodeStatus::kBadLength;
  }
  EXPECT_TRUE(saw_too_short);
  EXPECT_TRUE(saw_bad_length);
}

TEST(FuzzSmoke, EveryTruncationOfEveryTypeIsRejected) {
  PayloadTable payloads;
  for (const Buffer& frame : sample_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      AnyMessage out;
      EXPECT_NE(decode_frame(frame.data(), len, out, payloads),
                DecodeStatus::kOk)
          << "len " << len;
      EXPECT_TRUE(std::holds_alternative<std::monostate>(out));
    }
  }
}

TEST(FuzzSmoke, EverySingleBitFlipOfEveryTypeIsRejected) {
  PayloadTable payloads;
  for (Buffer frame : sample_frames()) {
    const Buffer pristine = frame;
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      AnyMessage out;
      EXPECT_NE(decode_frame(frame.data(), frame.size(), out, payloads),
                DecodeStatus::kOk)
          << "bit " << bit;
      frame = pristine;
    }
  }
}

TEST(FuzzSmoke, RandomMutationsOfValidFramesNeverCrash) {
  PayloadTable payloads;
  Rng rng(0xf023);
  const std::vector<Buffer> frames = sample_frames();
  for (int i = 0; i < 20000; ++i) {
    Buffer frame = frames[rng.uniform(frames.size())];
    const std::uint64_t flips = 1 + rng.uniform(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.uniform(frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    AnyMessage out;
    decode_frame(frame.data(), frame.size(), out, payloads);  // must not crash
  }
}

/// Every value a decoded message carries, in order ("-" for an absent one).
std::vector<std::string> values_of(const AnyMessage& msg) {
  std::vector<std::string> out;
  const auto add = [&out](const SharedValue& v) {
    out.push_back(v ? "+" + *v : "-");
  };
  if (const auto* rr = std::get_if<protocol::ReadReply>(&msg)) add(rr->value);
  const protocol::SharedUpdates* ups = nullptr;
  if (const auto* p = std::get_if<protocol::PrepareRequest>(&msg)) {
    ups = &p->updates;
  }
  if (const auto* p = std::get_if<protocol::ReplicateRequest>(&msg)) {
    ups = &p->updates;
  }
  if (ups != nullptr && *ups != nullptr) {
    for (const auto& [key, value] : **ups) add(value);
  }
  return out;
}

TEST(FuzzSmoke, ResealedMutationsDecodeTheirOwnBytesThroughASharedTable) {
  // Mutations re-sealed with a valid checksum reach the body parsers and
  // the payload table. A flip inside a value gives a write identity other
  // bytes than the payload the table holds for it, and a flip in a txid or
  // key moves the value to another identity. Whatever the table holds, each
  // message must carry exactly its own frame's values: the ones a private
  // table decodes.
  Rng rng(0xf026);
  PayloadTable payloads;
  std::vector<AnyMessage> recent(16);  // keeps recent payloads live
  const std::vector<Buffer> frames = sample_frames();
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const Buffer& pristine = frames[rng.uniform(frames.size())];
    const std::uint8_t tag = pristine[kFrameLenBytes];
    Buffer body(pristine.begin() + kFrameLenBytes + kFrameTypeBytes,
                pristine.end() - kFrameChecksumBytes);
    const std::uint64_t flips = rng.uniform(3);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.uniform(body.size() * 8);
      body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const Buffer frame = forge_frame(tag, body);
    AnyMessage shared;
    AnyMessage own;
    const DecodeStatus s =
        decode_frame(frame.data(), frame.size(), shared, payloads);
    ASSERT_EQ(s, decode_frame(frame.data(), frame.size(), own)) << i;
    if (s != DecodeStatus::kOk) continue;
    ++decoded;
    ASSERT_EQ(values_of(shared), values_of(own)) << i;
    recent[static_cast<std::size_t>(i) % recent.size()] = std::move(shared);
  }
  EXPECT_GT(decoded, 5000);
}

TEST(FuzzSmoke, UnknownTypeTagsAreBadType) {
  PayloadTable payloads;
  for (std::uint8_t tag : {std::uint8_t{0}, std::uint8_t{12},
                           std::uint8_t{200}, std::uint8_t{255}}) {
    const Buffer frame = forge_frame(tag, {});
    AnyMessage out;
    EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
              DecodeStatus::kBadType)
        << unsigned(tag);
  }
}

TEST(FuzzSmoke, TrailingBodyGarbageIsBadBody) {
  PayloadTable payloads;
  // A valid AbortMessage body with one stray byte appended (and the frame
  // re-sealed so the checksum passes): the parser must demand full
  // consumption, or a peer could smuggle bytes past the format.
  Buffer body;
  Writer w(body);
  w.varint(1);  // tx.node
  w.varint(2);  // tx.seq
  w.varint(3);  // partition
  body.push_back(0x00);
  const Buffer frame =
      forge_frame(static_cast<std::uint8_t>(MessageType::kAbort), body);
  AnyMessage out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kBadBody);
}

TEST(FuzzSmoke, ForgedUpdateCountCannotTriggerHugeAllocation) {
  PayloadTable payloads;
  // PrepareRequest whose update count claims 2^60 entries with an empty
  // tail. The decoder must reject on the count bound before reserving.
  Buffer body;
  Writer w(body);
  w.varint(1);                  // tx.node
  w.varint(2);                  // tx.seq
  w.varint(0);                  // coordinator
  w.varint(0);                  // partition
  w.varint(100);                // rs
  w.varint(std::uint64_t{1} << 60);  // update count (forged)
  const Buffer frame = forge_frame(
      static_cast<std::uint8_t>(MessageType::kPrepareRequest), body);
  AnyMessage out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kBadBody);
}

TEST(FuzzSmoke, OutOfRangeEnumsAreBadBody) {
  PayloadTable payloads;
  // DecisionReply.decision has three legal values; 3+ is malformed.
  Buffer body;
  Writer w(body);
  w.varint(1);   // tx.node
  w.varint(2);   // tx.seq
  w.varint(0);   // partition
  w.u8(3);       // decision: out of range
  w.varint(0);   // commit_ts
  const Buffer frame = forge_frame(
      static_cast<std::uint8_t>(MessageType::kDecisionReply), body);
  AnyMessage out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kBadBody);

  // Bool fields are strict too: PrepareReply.prepared must be 0 or 1.
  Buffer body2;
  Writer w2(body2);
  w2.varint(1);  // tx.node
  w2.varint(2);  // tx.seq
  w2.varint(0);  // partition
  w2.varint(0);  // from
  w2.u8(2);      // prepared: not a bool
  w2.varint(0);  // proposed_ts
  const Buffer frame2 = forge_frame(
      static_cast<std::uint8_t>(MessageType::kPrepareReply), body2);
  EXPECT_EQ(decode_frame(frame2.data(), frame2.size(), out, payloads),
            DecodeStatus::kBadBody);
}

TEST(FuzzSmoke, AssemblerRandomChunkingsEmitOnlyDecodableFrames) {
  PayloadTable payloads;
  // The transport's receive path is FrameAssembler → decode_frame. Any
  // chunking of a valid stream (the kernel is free to split or coalesce
  // reads arbitrarily) must emit frames the decoder accepts, in order.
  Rng rng(0xf024);
  const std::vector<Buffer> frames = sample_frames();
  Buffer stream;
  for (int i = 0; i < 50; ++i) {
    const Buffer& f = frames[i % frames.size()];
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (int round = 0; round < 200; ++round) {
    FrameAssembler a;
    std::size_t emitted = 0;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform(std::min<std::size_t>(stream.size() - pos, 129));
      ASSERT_TRUE(a.feed(
          stream.data() + pos, chunk,
          [&](const std::uint8_t* f, std::size_t sz) {
            EXPECT_EQ(Buffer(f, f + sz), frames[emitted % frames.size()]);
            AnyMessage out;
            EXPECT_EQ(decode_frame(f, sz, out, payloads), DecodeStatus::kOk);
            ++emitted;
          }));
      pos += chunk;
    }
    EXPECT_EQ(emitted, 50u) << "round " << round;
    EXPECT_FALSE(a.mid_frame());
  }
}

TEST(FuzzSmoke, AssemblerRandomGarbageStreamsNeverCrash) {
  PayloadTable payloads;
  // Adversarial byte streams through the assembler: it may emit frames
  // (decode_frame then rejects them) or latch its error, but must never
  // read out of bounds or emit a frame whose bytes it was not fed.
  Rng rng(0xf025);
  for (int i = 0; i < 2000; ++i) {
    FrameAssembler a(/*max_frame_size=*/4096);
    bool ok = true;
    for (int chunks = 0; ok && chunks < 16; ++chunks) {
      Buffer buf(1 + rng.uniform(256), 0);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
      ok = a.feed(buf.data(), buf.size(),
                  [&](const std::uint8_t* f, std::size_t sz) {
                    AnyMessage out;
                    decode_frame(f, sz, out, payloads);  // must not crash
                  });
    }
    EXPECT_EQ(ok, !a.error());
  }
}

TEST(FuzzSmoke, NonCanonicalTxIdNodeIsRejected) {
  PayloadTable payloads;
  // tx.node rides a u64 varint but the field is 32-bit: a value past
  // UINT32_MAX must be malformed, not silently truncated.
  Buffer body;
  Writer w(body);
  w.varint(std::uint64_t{1} << 40);  // tx.node: too wide
  w.varint(2);                        // tx.seq
  w.varint(0);                        // partition
  const Buffer frame =
      forge_frame(static_cast<std::uint8_t>(MessageType::kAbort), body);
  AnyMessage out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kBadBody);
}

}  // namespace
}  // namespace str::wire
