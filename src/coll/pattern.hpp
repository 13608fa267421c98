// Deterministic test-data patterns for collective verification.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "src/rdma/memory.hpp"

namespace mccl::coll {

/// Byte value at position `i` of a buffer seeded by (op, origin rank).
/// Periodic in `i` with period 256.
inline std::uint8_t pattern_byte(std::uint16_t op, std::size_t origin,
                                 std::uint64_t i) {
  return static_cast<std::uint8_t>(op * 197 + origin * 131 + i * 29 + 11);
}

/// One tile of the (op, origin) pattern. A whole number of periods, so the
/// byte at buffer offset i is tile[i % kPatternTile], and fill and verify
/// run as memcpy/memcmp of the tile instead of byte by byte.
inline constexpr std::size_t kPatternTile = 4096;
static_assert(kPatternTile % 256 == 0);

inline std::array<std::uint8_t, kPatternTile> pattern_tile(
    std::uint16_t op, std::size_t origin) {
  std::array<std::uint8_t, kPatternTile> tile{};
  for (std::size_t i = 0; i < kPatternTile; ++i)
    tile[i] = pattern_byte(op, origin, i);
  return tile;
}

inline void fill_pattern(rdma::HostMemory& mem, std::uint64_t addr,
                         std::uint64_t len, std::uint16_t op,
                         std::size_t origin) {
  const auto tile = pattern_tile(op, origin);
  std::uint8_t* p = mem.at(addr, len);
  for (std::uint64_t off = 0; off < len; off += kPatternTile)
    std::memcpy(p + off, tile.data(),
                std::min<std::uint64_t>(kPatternTile, len - off));
}

inline bool check_pattern(const rdma::HostMemory& mem, std::uint64_t addr,
                          std::uint64_t len, std::uint16_t op,
                          std::size_t origin) {
  const auto tile = pattern_tile(op, origin);
  const std::uint8_t* p = mem.at(addr, len);
  for (std::uint64_t off = 0; off < len; off += kPatternTile)
    if (std::memcmp(p + off, tile.data(),
                    std::min<std::uint64_t>(kPatternTile, len - off)) != 0)
      return false;
  return true;
}

}  // namespace mccl::coll
