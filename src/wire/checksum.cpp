// CRC-32C (Castagnoli), the frame and WAL-record checksum (wire/codec.hpp).
//
// Reflected polynomial 0x82F63B78, initial value and final XOR 0xFFFFFFFF:
// the checksum iSCSI (RFC 3720), ext4, LevelDB and RocksDB put on their
// records. Two kernels compute it:
//
//   * x86-64 with SSE4.2: the `crc32` instruction, 8 bytes per step. The
//     instruction takes three cycles to deliver its result but can start
//     one per cycle, so from 192 bytes on the buffer runs as three
//     interleaved lanes over groups of three adjacent 64-byte blocks, and
//     the lanes' CRCs are merged with a shift table: the CRC register after
//     a block of zeros is linear in the register before it, so four
//     256-entry tables apply that shift. What is left after the last group
//     runs in one lane.
//   * everywhere else: slicing-by-8 over eight 256-entry tables.
//
// The kernel is chosen once per process at run time, so a build with
// default compiler flags still takes the hardware path where the CPU has
// it. Both kernels return identical values; the tests check that on every
// length up to sixteen groups of three blocks plus a tail and against the
// RFC 3720 vectors. Both also continue a checksum: given the CRC of a
// prefix they return the CRC of the prefix followed by their bytes, so a
// record held in pieces is checksummed piece by piece without joining
// them.
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "wire/codec.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define STR_CRC32C_SSE42 1
#endif

namespace str::wire {
namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;

using Table = std::array<std::array<std::uint32_t, 256>, 8>;

/// table[0] is the classic byte-at-a-time table; table[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight lookups advance 8 bytes.
constexpr Table make_table() {
  Table t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Table kTable = make_table();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef STR_CRC32C_SSE42
/// Block length of the three-lane kernel, in bytes (a multiple of 8). The
/// size mix it serves was measured: a tpcc-durable timed pass makes about
/// 1.06 M checksum calls, and the 214 k of 192-767 bytes carry 70% of the
/// 160 MB checksummed; none reaches 24 KiB, and closure-mode workloads make
/// none. Timed in that pass on the 4-core Xeon host (rdtsc around each
/// call, three sub-seeds), 64-byte blocks take 12-17% fewer cycles than one
/// lane; 128-byte blocks and a ladder of 8192-, 256- and 64-byte tiers take
/// as many as 64-byte ones, 32-byte blocks more than one lane
/// (docs/PERFORMANCE.md, *Frame checksum*).
constexpr std::size_t kBlock = 64;

/// A linear map on the 32-bit CRC register: column n is the image of bit n.
using Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t apply(const Matrix& m, std::uint32_t v) {
  std::uint32_t out = 0;
  for (std::size_t n = 0; v != 0; ++n, v >>= 1) {
    if ((v & 1u) != 0) out ^= m[n];
  }
  return out;
}

/// a after b.
constexpr Matrix compose(const Matrix& a, const Matrix& b) {
  Matrix r{};
  for (std::size_t n = 0; n < 32; ++n) r[n] = apply(a, b[n]);
  return r;
}

/// What feeding `bytes` zero bytes does to the (uninverted) register.
constexpr Matrix zeros_operator(std::size_t bytes) {
  Matrix power{};  // one zero bit: shift right, fold the polynomial in
  power[0] = kPolynomial;
  for (std::size_t n = 1; n < 32; ++n) power[n] = 1u << (n - 1);
  for (int i = 0; i < 3; ++i) power = compose(power, power);  // one byte
  Matrix result{};
  for (std::size_t n = 0; n < 32; ++n) result[n] = 1u << n;
  for (; bytes != 0; bytes >>= 1, power = compose(power, power)) {
    if ((bytes & 1u) != 0) result = compose(power, result);
  }
  return result;
}

/// zeros_operator(bytes) as four byte-indexed tables.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift_table(std::size_t bytes) {
  const Matrix op = zeros_operator(bytes);
  ShiftTable t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 4; ++k) t[k][b] = apply(op, b << (8 * k));
  }
  return t;
}

constexpr ShiftTable kBlockShift = make_shift_table(kBlock);

/// The register after kBlock zero bytes.
std::uint64_t shift(std::uint64_t crc) {
  const ShiftTable& t = kBlockShift;
  return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^
         t[2][(crc >> 16) & 0xffu] ^ t[3][(crc >> 24) & 0xffu];
}

[[gnu::target("sse4.2")]] inline std::uint64_t crc_word(
    std::uint64_t crc, const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return _mm_crc32_u64(crc, word);
}

[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(const std::uint8_t* data,
                                                     std::size_t size,
                                                     std::uint32_t prefix) {
  std::uint64_t crc = prefix ^ 0xFFFFFFFFu;
  for (; size >= 3 * kBlock; data += 3 * kBlock, size -= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      crc = crc_word(crc, data + i);
      crc1 = crc_word(crc1, data + kBlock + i);
      crc2 = crc_word(crc2, data + 2 * kBlock + i);
    }
    crc = shift(crc) ^ crc1;
    crc = shift(crc) ^ crc2;
  }
  for (; size >= 8; data += 8, size -= 8) crc = crc_word(crc, data);
  // The last 0-7 bytes in at most three steps: most calls checksum a short
  // run of a WAL record between two payloads.
  auto tail = static_cast<std::uint32_t>(crc);
  if ((size & 4) != 0) {
    std::uint32_t word = 0;
    std::memcpy(&word, data, sizeof word);
    tail = _mm_crc32_u32(tail, word);
    data += 4;
  }
  if ((size & 2) != 0) {
    std::uint16_t half = 0;
    std::memcpy(&half, data, sizeof half);
    tail = _mm_crc32_u16(tail, half);
    data += 2;
  }
  if ((size & 1) != 0) tail = _mm_crc32_u8(tail, *data);
  return tail ^ 0xFFFFFFFFu;
}
#endif

using Kernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                 std::uint32_t);

Kernel select_kernel() {
#ifdef STR_CRC32C_SSE42
  // The first checksum may run during another object's static
  // initialisation, before libgcc has probed the CPU.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

}  // namespace

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t size,
                              std::uint32_t prefix) {
  std::uint32_t crc = prefix ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = kTable[7][lo & 0xffu] ^ kTable[6][(lo >> 8) & 0xffu] ^
          kTable[5][(lo >> 16) & 0xffu] ^ kTable[4][lo >> 24] ^
          kTable[3][hi & 0xffu] ^ kTable[2][(hi >> 8) & 0xffu] ^
          kTable[1][(hi >> 16) & 0xffu] ^ kTable[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kTable[0][(crc ^ *data) & 0xffu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t checksum32(const std::uint8_t* data, std::size_t size,
                         std::uint32_t prefix) {
  static const Kernel kernel = select_kernel();
  return kernel(data, size, prefix);
}

}  // namespace str::wire
