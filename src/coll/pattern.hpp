// Deterministic test-data patterns for collective verification.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "src/rdma/memory.hpp"

namespace mccl::coll {

/// splitmix64's finalizer: a cheap 64-bit mix for seeding test data.
inline std::uint64_t pattern_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Tile length of the test pattern: the byte at buffer offset i is
/// tile[i % kPatternTile], so fill and verify run as memcpy/memcmp of one
/// tile instead of byte by byte.
inline constexpr std::size_t kPatternTile = 4096;

/// Byte value at position `i` of a buffer seeded by (op, origin rank).
/// Periodic in `i` with period kPatternTile. Every tile byte comes from a
/// hash of (op, origin, i % kPatternTile), so the tiles of two ops differ
/// almost everywhere: a reused buffer that still holds an earlier op's
/// bytes never passes check_pattern for a later one.
inline std::uint8_t pattern_byte(std::uint16_t op, std::size_t origin,
                                 std::uint64_t i) {
  const std::uint64_t seed =
      pattern_mix((std::uint64_t{op} << 32) ^ std::uint64_t{origin});
  const std::uint64_t pos = i % kPatternTile;
  return static_cast<std::uint8_t>(pattern_mix(seed + pos / 8) >>
                                   (8 * (pos % 8)));
}

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
