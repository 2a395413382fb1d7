// Fixed-width little-endian field codecs for page payloads.
//
// Page files are an interchange format (snapshots move between hosts), so
// integers are pinned to little-endian byte order rather than memcpy'd in
// host order.
#pragma once

#include <cstdint>

namespace pubsub::storage {

inline void PutU32(char* p, std::uint32_t v) {
  unsigned char* b = reinterpret_cast<unsigned char*>(p);
  b[0] = static_cast<unsigned char>(v);
  b[1] = static_cast<unsigned char>(v >> 8);
  b[2] = static_cast<unsigned char>(v >> 16);
  b[3] = static_cast<unsigned char>(v >> 24);
}

inline std::uint32_t GetU32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace pubsub::storage
