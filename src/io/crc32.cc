#include "io/crc32.h"

#include <array>

namespace pubsub {
namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), generated at static-init time.  tables[0] is
// the byte-at-a-time table; tables[k][b] is tables[k-1][b] advanced over one
// more zero byte, so eight input bytes fold in with eight independent
// lookups instead of a chain of eight dependent ones.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

}  // namespace

std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  static const Tables t = MakeTables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

}  // namespace pubsub
