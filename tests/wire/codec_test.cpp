// Wire-codec primitives: varint/zigzag mappings, the CRC-32C checksum
// (known answers, kernel agreement, burst detection through decode_frame),
// and the bounds-latched Reader that must never read past untrusted input.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

std::uint64_t roundtrip_varint(std::uint64_t v, std::size_t* encoded_size) {
  Buffer buf;
  Writer w(buf);
  w.varint(v);
  if (encoded_size != nullptr) *encoded_size = buf.size();
  Reader r(buf.data(), buf.size());
  const std::uint64_t out = r.varint();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(Codec, VarintRoundTripAtBoundaries) {
  // Each 7-bit group boundary changes the encoded length by one byte.
  const struct {
    std::uint64_t value;
    std::size_t size;
  } cases[] = {
      {0, 1},
      {1, 1},
      {0x7f, 1},
      {0x80, 2},
      {0x3fff, 2},
      {0x4000, 3},
      {std::numeric_limits<std::uint32_t>::max(), 5},
      {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    std::size_t size = 0;
    EXPECT_EQ(roundtrip_varint(c.value, &size), c.value);
    EXPECT_EQ(size, c.size) << "value " << c.value;
    EXPECT_EQ(varint_size(c.value), c.size) << "value " << c.value;
  }
}

TEST(Codec, CursorWriterFillsStorageSizedByTheSizeFunctions) {
  // Frames and WAL records are written into storage sized by varint_size
  // (frame_size, body_size): the fields must end exactly where those sizes
  // say, leaving nothing unwritten.
  const std::uint64_t values[] = {0, 0x7f, 0x80, 0x3fff, 0x4000,
                                  std::numeric_limits<std::uint64_t>::max()};
  const std::string text(300, 'x');
  std::size_t size = 1 + 4 + varint_size(text.size()) + text.size();
  for (std::uint64_t v : values) size += varint_size(v);
  Buffer buf(size);
  CursorWriter w(buf.data(), buf.data() + buf.size());
  w.u8(0xab);
  w.u32le(0x12345678u);
  for (std::uint64_t v : values) w.varint(v);
  w.str(text);
  EXPECT_EQ(w.remaining(), 0u);
  EXPECT_EQ(w.position(), buf.data() + buf.size());
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32le(), 0x12345678u);
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  std::string out;
  ASSERT_TRUE(r.str(out));
  EXPECT_EQ(out, text);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, VarintRejectsOverlongAndOverflow) {
  // 11 bytes of continuation: no u64 varint is that long.
  {
    Buffer buf(11, 0x80);
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
  // 10-byte encoding whose final byte carries more than the single bit a
  // u64 has left: would encode bits 64+.
  {
    Buffer buf(9, 0x80);
    buf.push_back(0x02);
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
  // The canonical 10-byte max encoding is accepted.
  {
    Buffer buf(9, 0xff);
    buf.push_back(0x01);
    Reader r(buf.data(), buf.size());
    EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.ok());
  }
  // Truncated mid-varint: continuation bit set, then end of buffer.
  {
    Buffer buf = {0x80, 0x80};
    Reader r(buf.data(), buf.size());
    r.varint();
    EXPECT_FALSE(r.ok());
  }
}

TEST(Codec, ZigzagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
  const std::int64_t values[] = {0, 1, -1, 42, -42,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  Buffer buf;
  Writer w(buf);
  w.zigzag(-7);
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.zigzag(), -7);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, ChecksumIsSensitiveToEverySingleBitFlip) {
  std::uint8_t data[32];
  for (std::size_t i = 0; i < sizeof data; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t base = checksum32(data, sizeof data);
  for (std::size_t bit = 0; bit < sizeof(data) * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(checksum32(data, sizeof data), base) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(checksum32(data, sizeof data), base);  // restored
  EXPECT_NE(checksum32(data, sizeof data - 1), base);  // length matters
}

TEST(Codec, ChecksumIsCrc32cOnKnownAnswers) {
  // "123456789" is the catalogue check value; the rest are the CRC-32C
  // vectors of RFC 3720 (iSCSI), section B.4.
  std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>> cases;
  const std::string check = "123456789";
  cases.emplace_back(std::vector<std::uint8_t>(check.begin(), check.end()),
                     0xE3069283u);
  cases.emplace_back(std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu);
  cases.emplace_back(std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  cases.emplace_back(ascending, 0x46DD794Eu);
  cases.emplace_back(descending, 0x113FDB5Cu);
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(checksum32(bytes.data(), bytes.size()), want);
    EXPECT_EQ(crc32c_portable(bytes.data(), bytes.size()), want);
  }
  EXPECT_EQ(checksum32(nullptr, 0), 0u);
  EXPECT_EQ(crc32c_portable(nullptr, 0), 0u);
}

/// The hardware kernel (wire/checksum.cpp) runs groups of three 64-byte
/// blocks, then the tail in one lane. Sixteen groups and a tail of every
/// length take every one of those paths, several times over.
constexpr std::size_t kLaneBlock = 64;
constexpr std::size_t kSweepLength = 16 * 3 * kLaneBlock + 3 * kLaneBlock - 1;

TEST(Codec, ChecksumKernelsAgreeOnEveryLengthAndAlignment) {
  // checksum32 runs the hardware kernel where the CPU has one; it must
  // equal the portable kernel on every length (so every split into groups
  // of three lanes and every tail size after the 8-byte steps) and every
  // start alignment. The reference CRC of each length continues the
  // previous one by a byte.
  Rng rng(0xc3c3);
  std::vector<std::uint8_t> buf(300 * 1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    std::uint32_t want = 0;  // crc32c_portable(p, len)
    for (std::size_t len = 0; len <= kSweepLength; ++len) {
      if (len <= 1024) {
        ASSERT_EQ(crc32c_portable(p, len), want) << len;
      }
      ASSERT_EQ(checksum32(p, len), want)
          << "offset " << offset << " length " << len;
      want = crc32c_portable(p + len, 1, want);
    }
  }
  EXPECT_EQ(checksum32(buf.data(), buf.size()),
            crc32c_portable(buf.data(), buf.size()));
}

TEST(Codec, ChecksumContinuesAtEverySplitPoint) {
  // A frame held in pieces is checksummed piece by piece: continuing the
  // CRC of a prefix over the rest must give the CRC of the whole, at every
  // split point, through both kernels. Past 1 KiB, a buffer of sixteen
  // groups of three lanes plus a tail splits at and next to every multiple
  // of the lane block, so at every block and group boundary.
  Rng rng(0x5eed);
  std::vector<std::uint8_t> buf(kSweepLength + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  using Kernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                   std::uint32_t);
  for (const Kernel crc : {Kernel{checksum32}, Kernel{crc32c_portable}}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        const std::uint8_t* p = buf.data() + offset;
        const std::uint32_t whole = crc(p, len, 0);
        std::uint32_t prefix = 0;  // CRC of p[0, split)
        for (std::size_t split = 0; split <= len; ++split) {
          ASSERT_EQ(crc(p + split, len - split, prefix), whole)
              << "offset " << offset << " length " << len << " split "
              << split;
          if (split < len) prefix = crc(p + split, 1, prefix);
        }
        ASSERT_EQ(prefix, whole);
      }
      const std::uint8_t* p = buf.data() + offset;
      const std::uint32_t whole = crc(p, kSweepLength, 0);
      for (std::size_t at = 0; at <= kSweepLength; at += kLaneBlock) {
        for (const std::size_t split : {at - 1, at, at + 1}) {
          if (split > kSweepLength) continue;  // wrapped below zero, or past
          ASSERT_EQ(crc(p + split, kSweepLength - split, crc(p, split, 0)),
                    whole)
              << "offset " << offset << " split " << split;
        }
      }
    }
  }
}

TEST(Codec, FrameChecksumCatchesEveryBurstUpTo32Bits) {
  // A CRC of degree 32 detects every error burst of length <= 32: any
  // pattern whose first and last flipped bits lie at most 31 bits apart.
  // Bits are numbered LSB-first within each byte, the order the reflected
  // CRC consumes them, so consecutive numbers are adjacent in the code.
  protocol::ReadReply reply;
  reply.reader = TxId{3, 7};
  reply.req_id = 1;
  reply.key = 2;
  reply.found = true;
  reply.writer = TxId{5, 9};
  reply.version_ts = 4;
  constexpr std::size_t kBody = 256;
  for (std::size_t n = 0; body_size(reply) < kBody; ++n) {
    reply.value = std::make_shared<Value>(std::string(n, 'v'));
  }
  ASSERT_EQ(body_size(reply), kBody);
  const Buffer frame = encode_frame(reply);
  const std::size_t body_at = kFrameLenBytes + kFrameTypeBytes;
  PayloadTable payloads;
  AnyMessage out;
  ASSERT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kOk);

  Rng rng(0xb0257);
  Buffer corrupt = frame;
  const auto flip = [&corrupt, body_at](std::size_t bit) {
    corrupt[body_at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  std::size_t bursts = 0;
  for (std::size_t len = 1; len <= 32; ++len) {
    // Burst of exactly `len` bits: both ends flipped, interior bits either
    // all clear (the first pattern) or random.
    const int patterns = len > 2 ? 4 : 1;
    for (std::size_t first = 0; first + len <= kBody * 8; ++first) {
      for (int pattern = 0; pattern < patterns; ++pattern) {
        const std::uint64_t interior =
            pattern == 0 ? 0
                         : rng.next() & ((std::uint64_t{1} << (len - 2)) - 1);
        corrupt = frame;
        flip(first);
        if (len > 1) flip(first + len - 1);
        for (std::size_t i = 0; i + 2 < len; ++i) {
          if ((interior >> i) & 1u) flip(first + 1 + i);
        }
        ASSERT_EQ(decode_frame(corrupt.data(), corrupt.size(), out, payloads),
                  DecodeStatus::kBadChecksum)
            << "burst of " << len << " bits at bit " << first;
        ++bursts;
      }
    }
  }
  EXPECT_GT(bursts, 100'000u);
}

TEST(Codec, ReaderLatchesFailureAndStopsAtTheEnd) {
  Buffer buf = {0x01, 0x02};
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32le(), 0u);  // needs 4 bytes, only 2 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);  // latched to the end
  // Every subsequent read is a harmless zero, never a re-read of the data.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.varint(), 0u);
  std::string s;
  EXPECT_FALSE(r.str(s));
  EXPECT_FALSE(r.ok());
}

TEST(Codec, ReaderStrRejectsForgedLengthBeforeAllocating) {
  // Length prefix claims ~1 EiB with 3 bytes of payload behind it: str()
  // must refuse before touching memory, not allocate-then-fault.
  Buffer buf;
  Writer w(buf);
  w.varint(std::uint64_t{1} << 60);
  buf.push_back('a');
  buf.push_back('b');
  buf.push_back('c');
  Reader r(buf.data(), buf.size());
  std::string out = "untouched";
  EXPECT_FALSE(r.str(out));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(out, "untouched");
}

TEST(Codec, StrRoundTripsEmptyAndEmbeddedNul) {
  const std::string cases[] = {"", std::string("a\0b", 3),
                               std::string(300, 'x')};
  for (const std::string& s : cases) {
    Buffer buf;
    Writer w(buf);
    w.str(s);
    Reader r(buf.data(), buf.size());
    std::string out;
    ASSERT_TRUE(r.str(out));
    EXPECT_EQ(out, s);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Codec, U32leRoundTripIsLittleEndian) {
  Buffer buf;
  Writer w(buf);
  w.u32le(0x12345678u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x78);
  EXPECT_EQ(buf[1], 0x56);
  EXPECT_EQ(buf[2], 0x34);
  EXPECT_EQ(buf[3], 0x12);
  Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.u32le(), 0x12345678u);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace str::wire
