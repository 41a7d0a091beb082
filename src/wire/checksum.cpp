// CRC-32C (Castagnoli), the frame and WAL-record checksum (wire/codec.hpp).
//
// Reflected polynomial 0x82F63B78, initial value and final XOR 0xFFFFFFFF:
// the checksum iSCSI (RFC 3720), ext4, LevelDB and RocksDB put on their
// records. Two kernels compute it:
//
//   * x86-64 with SSE4.2: the `crc32` instruction, 8 bytes per step;
//   * everywhere else: slicing-by-8 over eight 256-entry tables.
//
// The kernel is chosen once per process at run time, so a build with
// default compiler flags still takes the hardware path where the CPU has
// it. Both kernels return identical values; the tests check that on every
// length up to 1 KiB and against the RFC 3720 vectors. Both also continue
// a checksum: given the CRC of a prefix they return the CRC of the prefix
// followed by their bytes, so a record held in pieces is checksummed piece
// by piece without joining them.
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
[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(const std::uint8_t* data,
                                                     std::size_t size,
                                                     std::uint32_t prefix) {
  std::uint64_t crc = prefix ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; size > 0; ++data, --size) tail = _mm_crc32_u8(tail, *data);
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
