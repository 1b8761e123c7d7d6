// CRC-32C known answers: the checksum guards every stored page, snapshot
// section and wire frame, so its values are part of the on-disk and wire
// formats. These tests pin them to the published vectors and to a plain
// bytewise reference, whatever the production implementation does to go
// faster.

#include "src/common/crc32c.h"

#include <gtest/gtest.h>

#include <string>

namespace relgraph {
namespace {

/// Bit-at-a-time CRC-32C, the definition itself: no tables to get wrong.
uint32_t ReferenceExtend(uint32_t crc, const char* data, size_t n) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; i++) {
    c ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

/// Deterministic, non-repeating test bytes.
std::string Bytes(size_t n) {
  std::string out(n, '\0');
  uint32_t x = 0x9E3779B9u;
  for (size_t i = 0; i < n; i++) {
    x = x * 1664525u + 1013904223u;
    out[i] = static_cast<char>(x >> 24);
  }
  return out;
}

// RFC 3720 (iSCSI) Appendix B.4 test vectors, plus the customary check
// value of "123456789".
TEST(Crc32cTest, KnownAnswers) {
  std::string zeros(32, '\x00');
  std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; i++) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc32c::Value(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(crc32c::Value(descending.data(), descending.size()), 0x113FDB5Cu);
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

// Every length 0..64 at every start offset 0..7, so each mix of the
// word-at-a-time body and the bytewise tail, aligned or not, is covered.
TEST(Crc32cTest, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string buf = Bytes(64 + 8);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len <= 64; len++) {
      const char* p = buf.data() + offset;
      EXPECT_EQ(crc32c::Value(p, len), ReferenceExtend(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// Extend must compose: hashing a buffer in pieces, split anywhere, equals
// hashing it whole. Page checksums rely on this (data, then the page id).
TEST(Crc32cTest, SplitExtendChainsEqualOneShot) {
  const std::string buf = Bytes(4096 + 29);  // longer than any split below
  const uint32_t whole = crc32c::Value(buf.data(), buf.size());
  EXPECT_EQ(whole, ReferenceExtend(0, buf.data(), buf.size()));
  for (size_t a : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{4095}}) {
    for (size_t b : {size_t{0}, size_t{3}, size_t{8}, size_t{17}}) {
      const size_t split2 = a + b;
      uint32_t c = crc32c::Extend(0, buf.data(), a);
      c = crc32c::Extend(c, buf.data() + a, b);
      c = crc32c::Extend(c, buf.data() + split2, buf.size() - split2);
      EXPECT_EQ(c, whole) << "splits at " << a << " and " << split2;
    }
  }
}

TEST(Crc32cTest, ExtendU32HashesLittleEndianBytes) {
  const std::string buf = Bytes(100);
  const uint32_t v = 0x12345678u;
  const char le[4] = {0x78, 0x56, 0x34, 0x12};
  const uint32_t base = crc32c::Value(buf.data(), buf.size());
  EXPECT_EQ(crc32c::ExtendU32(base, v), ReferenceExtend(base, le, 4));
}

// The SSE4.2 path and the slicing-by-8 fallback are one function: they
// must agree at every length up to two physical pages and every start
// offset 0..15, one-shot and as split Extend chains, so a page written on
// a host with either path verifies on a host with the other.
TEST(Crc32cTest, HardwareMatchesSoftwareAtEveryLengthAndOffset) {
  if (!crc32c::internal::HasHardware()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  constexpr size_t kMaxLen = 2 * 4104;  // two physical pages (data + footer)
  const std::string buf = Bytes(kMaxLen + 16);
  size_t mismatches = 0;
  for (size_t offset = 0; offset < 16; offset++) {
    const char* p = buf.data() + offset;
    for (size_t len = 0; len <= kMaxLen; len++) {
      const uint32_t soft = crc32c::internal::ExtendSoftware(0, p, len);
      if (crc32c::internal::ExtendHardware(0, p, len) != soft) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "offset " << offset << " length " << len;
        }
        continue;
      }
      // Split at a point that moves with length and offset, chaining the
      // two implementations in both orders: the second call starts from a
      // non-zero running CRC.
      const size_t split = (len * 7 + offset) % (len + 1);
      const uint32_t hw_then_sw = crc32c::internal::ExtendSoftware(
          crc32c::internal::ExtendHardware(0, p, split), p + split,
          len - split);
      const uint32_t sw_then_hw = crc32c::internal::ExtendHardware(
          crc32c::internal::ExtendSoftware(0, p, split), p + split,
          len - split);
      if (hw_then_sw != soft || sw_then_hw != soft) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "split chain at " << split << ", offset "
                        << offset << " length " << len;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// The oracle itself stays pinned to the definition whichever path Extend
// picked on this host.
TEST(Crc32cTest, SoftwarePathMatchesBytewiseReference) {
  const std::string buf = Bytes(4104 + 16);
  for (size_t offset = 0; offset < 16; offset++) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{63}, size_t{4096}, size_t{4104}}) {
      const char* p = buf.data() + offset;
      EXPECT_EQ(crc32c::internal::ExtendSoftware(0, p, len),
                ReferenceExtend(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace relgraph
