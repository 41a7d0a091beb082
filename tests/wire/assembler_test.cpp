// FrameAssembler: incremental length-prefix reassembly over arbitrary
// stream chunkings. The invariant under test is differential — any split of
// a valid frame stream must emit exactly the same frames in the same order
// as feeding it whole — plus the error latch on forged length prefixes.
#include "wire/assembler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

/// A syntactically valid frame (length prefix + tag + body + checksum
/// bytes). The assembler does not verify checksums — that is the decoder's
/// job — so the trailer bytes are arbitrary.
Buffer test_frame(std::uint8_t tag, std::size_t body_size) {
  Buffer f;
  const auto rest = static_cast<std::uint32_t>(kFrameTypeBytes + body_size +
                                               kFrameChecksumBytes);
  f.push_back(static_cast<std::uint8_t>(rest & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 8) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 16) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 24) & 0xff));
  f.push_back(tag);
  for (std::size_t i = 0; i < body_size + kFrameChecksumBytes; ++i) {
    f.push_back(static_cast<std::uint8_t>((tag + i) & 0xff));
  }
  return f;
}

std::vector<Buffer> feed_all(FrameAssembler& a, const std::uint8_t* data,
                             std::size_t size) {
  std::vector<Buffer> out;
  a.feed(data, size, [&](const std::uint8_t* f, std::size_t sz) {
    out.emplace_back(f, f + sz);
  });
  return out;
}

TEST(FrameAssembler, SingleCompleteFrameEmitsOnFastPath) {
  FrameAssembler a;
  const Buffer frame = test_frame(3, 17);
  const auto got = feed_all(a, frame.data(), frame.size());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], frame);
  // A whole frame in one chunk never touches the residue buffer.
  EXPECT_EQ(a.buffered(), 0u);
  EXPECT_FALSE(a.mid_frame());
  EXPECT_EQ(a.frames_emitted(), 1u);
}

TEST(FrameAssembler, ByteAtATimeMatchesWholeBufferFeed) {
  Buffer stream;
  std::vector<Buffer> frames;
  for (std::uint8_t t = 1; t <= 11; ++t) {
    frames.push_back(test_frame(t, t * 7u));
    stream.insert(stream.end(), frames.back().begin(), frames.back().end());
  }
  FrameAssembler whole;
  const auto expect = feed_all(whole, stream.data(), stream.size());
  ASSERT_EQ(expect.size(), frames.size());
  EXPECT_EQ(expect, frames);

  FrameAssembler trickle;
  std::vector<Buffer> got;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(trickle.feed(&b, 1, [&](const std::uint8_t* f,
                                        std::size_t sz) {
      got.emplace_back(f, f + sz);
    }));
  }
  EXPECT_EQ(got, expect);
  EXPECT_EQ(trickle.buffered(), 0u);
}

TEST(FrameAssembler, RandomChunkingsAreDifferentiallyIdentical) {
  Rng rng(0xa55e);
  Buffer stream;
  std::vector<Buffer> frames;
  for (int i = 0; i < 40; ++i) {
    frames.push_back(test_frame(static_cast<std::uint8_t>(1 + i % 11),
                                rng.uniform(300)));
    stream.insert(stream.end(), frames.back().begin(), frames.back().end());
  }
  for (int round = 0; round < 50; ++round) {
    FrameAssembler a;
    std::vector<Buffer> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform(std::min<std::size_t>(stream.size() - pos, 97));
      ASSERT_TRUE(a.feed(stream.data() + pos, chunk,
                         [&](const std::uint8_t* f, std::size_t sz) {
                           got.emplace_back(f, f + sz);
                         }));
      pos += chunk;
    }
    EXPECT_EQ(got, frames) << "round " << round;
    EXPECT_FALSE(a.mid_frame());
  }
}

TEST(FrameAssembler, CoalescedBurstEmitsEverythingInOrder) {
  Buffer stream;
  for (int i = 0; i < 200; ++i) {
    const Buffer f = test_frame(static_cast<std::uint8_t>(1 + i % 11), 5);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameAssembler a;
  const auto got = feed_all(a, stream.data(), stream.size());
  EXPECT_EQ(got.size(), 200u);
  EXPECT_EQ(a.frames_emitted(), 200u);
  EXPECT_EQ(a.buffered(), 0u);
}

TEST(FrameAssembler, MidFrameBuffersResidue) {
  FrameAssembler a;
  const Buffer frame = test_frame(2, 64);
  const auto got = feed_all(a, frame.data(), frame.size() - 10);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(a.mid_frame());
  EXPECT_EQ(a.buffered(), frame.size() - 10);
  const auto rest = feed_all(a, frame.data() + frame.size() - 10, 10);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], frame);
  EXPECT_FALSE(a.mid_frame());
}

TEST(FrameAssembler, OversizedLengthPrefixLatchesError) {
  FrameAssembler a(/*max_frame_size=*/128);
  Buffer frame = test_frame(1, 200);  // 209 bytes total > 128
  EXPECT_FALSE(a.feed(frame.data(), frame.size(),
                      [](const std::uint8_t*, std::size_t) { FAIL(); }));
  EXPECT_TRUE(a.error());
  // The latch holds: later (even valid) bytes are refused.
  const Buffer ok = test_frame(1, 4);
  EXPECT_FALSE(a.feed(ok.data(), ok.size(),
                      [](const std::uint8_t*, std::size_t) { FAIL(); }));
}

TEST(FrameAssembler, RestLenSmallerThanTagPlusChecksumIsError) {
  // rest_len must cover at least the tag byte and the checksum; a forged
  // prefix below that would otherwise make the stream position go nowhere.
  FrameAssembler a;
  const Buffer bogus = {4, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd};  // rest_len 4
  EXPECT_FALSE(a.feed(bogus.data(), bogus.size(),
                      [](const std::uint8_t*, std::size_t) { FAIL(); }));
  EXPECT_TRUE(a.error());
}

TEST(FrameAssembler, ErrorLatchesEvenMidStreamAfterValidFrames) {
  FrameAssembler a;
  Buffer stream = test_frame(5, 10);
  const Buffer good = stream;
  Buffer poison = test_frame(6, 10);
  poison[3] = 0x7f;  // length prefix now claims ~2 GiB
  stream.insert(stream.end(), poison.begin(), poison.end());
  std::vector<Buffer> got;
  EXPECT_FALSE(a.feed(stream.data(), stream.size(),
                      [&](const std::uint8_t* f, std::size_t sz) {
                        got.emplace_back(f, f + sz);
                      }));
  // The valid prefix of the stream was still delivered.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], good);
  EXPECT_TRUE(a.error());
}

TEST(FrameAssembler, ResetClearsResidueAndError) {
  FrameAssembler a(128);
  const Buffer big = test_frame(1, 200);
  EXPECT_FALSE(a.feed(big.data(), big.size(),
                      [](const std::uint8_t*, std::size_t) {}));
  a.reset();
  EXPECT_FALSE(a.error());
  EXPECT_EQ(a.buffered(), 0u);
  const Buffer ok = test_frame(1, 4);
  FrameAssembler* ap = &a;
  std::size_t emitted = 0;
  EXPECT_TRUE(ap->feed(ok.data(), ok.size(),
                       [&](const std::uint8_t*, std::size_t) { ++emitted; }));
  EXPECT_EQ(emitted, 1u);
}

TEST(FrameAssembler, RealEncodedFramesSurviveChunkedReassembly) {
  // End-to-end with the actual codec: encoded AbortMessage frames, split at
  // every boundary, must re-emerge decodable.
  const Buffer frame = encode_frame(protocol::AbortMessage{TxId{3, 44}, 2});
  for (std::size_t split = 1; split < frame.size(); ++split) {
    FrameAssembler a;
    std::vector<Buffer> got;
    auto sink = [&](const std::uint8_t* f, std::size_t sz) {
      got.emplace_back(f, f + sz);
    };
    ASSERT_TRUE(a.feed(frame.data(), split, sink));
    ASSERT_TRUE(a.feed(frame.data() + split, frame.size() - split, sink));
    ASSERT_EQ(got.size(), 1u) << "split " << split;
    AnyMessage out;
    PayloadTable payloads;
    EXPECT_EQ(decode_frame(got[0].data(), got[0].size(), out, payloads),
              DecodeStatus::kOk)
        << "split " << split;
  }
}

}  // namespace
}  // namespace str::wire
