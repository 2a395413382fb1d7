// CRC-32C (Castagnoli) checksums for the durable text artifacts.
//
// io/serialize owns every use: each journal record line carries the CRC of
// its own bytes, and snapshots and fleet manifests end in a trailer with
// the CRC of everything before it, so a torn write or a flipped byte is
// detected at read time rather than replayed.  The Castagnoli polynomial is
// the one used by iSCSI/ext4/Btrfs.  The software slicing-by-8 tables keep
// the toolchain dependency-free while folding in eight bytes per step, since
// every journaled command pays one CRC on the publish path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pubsub {

// CRC-32C of `n` bytes at `data`.  `seed` chains partial checksums:
// Crc32c(b, Crc32c(a)) == Crc32c(a || b).
std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace pubsub
