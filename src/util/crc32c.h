#pragma once

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding durability artifacts (WAL records, checkpoint sections).
// Software slice-by-one table implementation: ~1 GB/s, which dwarfs the
// artifact sizes involved, and carries no ISA dependency. The table is built
// at compile time so there is no init-order hazard for static-storage users.
//
// Checksums are *masked* before hitting disk (the leveldb trick): a CRC of
// data that itself embeds CRCs is weak, and a file of zeros would otherwise
// carry a valid zero CRC. Maskers rotate and add a constant so a stored
// masked CRC never equals the raw CRC of anything.

#include <array>
#include <cstddef>
#include <cstdint>

namespace graphbolt {

namespace crc32c_detail {

constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kTable = BuildTable();

}  // namespace crc32c_detail

// Extends a running CRC32C with `n` bytes. Start from Crc32c() (or 0) and
// chain calls to checksum discontiguous sections as one stream.
inline uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = crc32c_detail::kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

// Masked form stored on disk (see header comment).
inline constexpr uint32_t kCrcMaskDelta = 0xA282EAD8u;

inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kCrcMaskDelta;
}

}  // namespace graphbolt
