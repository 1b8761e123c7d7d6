#include "src/common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

#ifdef __x86_64__
#include <nmmintrin.h>
#endif

namespace relgraph {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table;
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once. Built at compile time.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; i++) {
    for (size_t k = 1; k < 8; k++) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Little-endian 8-byte load: one unaligned load on little-endian hosts,
/// byte assembly elsewhere, so every host computes the same CRC.
uint64_t LoadLe64(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return v;
  } else {
    uint64_t v = 0;
    for (int i = 7; i >= 0; i--) v = (v << 8) | p[i];
    return v;
  }
}

}  // namespace

namespace internal {

uint32_t ExtendSoftware(uint32_t crc, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadLe64(p) ^ c;
    c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
        kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
        kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
        kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; p++, n--) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

#ifdef __x86_64__

/// One `crc32` instruction per 8-byte word; x86 is little-endian and
/// loads unaligned words, so this is the software loop in silicon.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const char* data,
                                                          size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; p++, n--) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

bool HasHardware() {
  __builtin_cpu_init();  // may run before the runtime's own constructors
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n) {
  return ExtendSoftware(crc, data, n);  // never chosen: HasHardware() is false
}

bool HasHardware() { return false; }

#endif

}  // namespace internal

uint32_t Extend(uint32_t crc, const char* data, size_t n) {
  static const auto chosen = internal::HasHardware()
                                 ? internal::ExtendHardware
                                 : internal::ExtendSoftware;
  return chosen(crc, data, n);
}

uint32_t ExtendU32(uint32_t crc, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; i++) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return Extend(crc, bytes, 4);
}

}  // namespace crc32c
}  // namespace relgraph
