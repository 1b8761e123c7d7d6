#pragma once

#include <cstddef>
#include <cstdint>

namespace relgraph {
namespace crc32c {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum RocksDB/LevelDB and iSCSI use for on-disk block integrity.
/// Two implementations of the one function: the SSE4.2 `crc32`
/// instruction, built on x86 only and chosen once at run time when the CPU
/// has it, and a portable slicing-by-8 fallback (eight table lookups per
/// 8-byte word). Their values are bit-identical to each other and to the
/// classic bytewise algorithm, so stored pages, snapshots and wire frames
/// written on any host verify on any other. One CRC guards each disk
/// page, each snapshot section, and each wire frame payload; the three
/// layers share this module so a checksum computed by one can be audited
/// by the tools of another.

/// Extends `crc` (the running value over previously-hashed bytes) with
/// `data[0, n)`. Seed a fresh computation with crc = 0.
uint32_t Extend(uint32_t crc, const char* data, size_t n);

/// CRC of `data[0, n)` in one call.
inline uint32_t Value(const char* data, size_t n) {
  return Extend(0, data, n);
}

/// Convenience for hashing a little-endian u32 after a byte run (used to
/// bind a page's checksum to its page id so a misdirected-but-intact write
/// still fails verification).
uint32_t ExtendU32(uint32_t crc, uint32_t v);

namespace internal {

/// The two implementations behind Extend, exposed so tests can hold them
/// to each other. ExtendSoftware is the oracle and runs everywhere;
/// ExtendHardware may be called only when HasHardware() is true.
uint32_t ExtendSoftware(uint32_t crc, const char* data, size_t n);
uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n);
bool HasHardware();

}  // namespace internal

}  // namespace crc32c
}  // namespace relgraph
