// util::crc32 against its definition: the IEEE 802.3 check value, a bitwise
// (table-free) reference over every short length at every start alignment,
// and the incremental-update contract the checkpoint framing relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace cbe::util {
namespace {

/// One bit at a time, straight from the reflected polynomial.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t len,
                            std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x190a55adu);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBitwise) {
  const std::vector<std::uint8_t> buf = random_bytes(256 + 8, 0xc3c32);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), crc32_bitwise(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainingEqualsOnePass) {
  const std::vector<std::uint8_t> buf = random_bytes(300, 0x5eed);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
  // A non-default seed continues the same way as a bitwise chain.
  EXPECT_EQ(crc32(buf.data(), 100, 0x12345678u),
            crc32_bitwise(buf.data(), 100, 0x12345678u));
}

}  // namespace
}  // namespace cbe::util
