// Host memory arena and registration-table tests, including the unbacked
// (timing-only) mode used by large synthetic benchmarks, and the tiled
// test-pattern helpers collectives verify their results with.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/coll/pattern.hpp"
#include "src/rdma/memory.hpp"

namespace mccl::rdma {
namespace {

TEST(HostMemory, AllocAlignsAndAdvances) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(100);
  const auto b = m.alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(HostMemory, CustomAlignment) {
  HostMemory m(1 << 20);
  m.alloc(3);
  const auto a = m.alloc(16, 4096);
  EXPECT_EQ(a % 4096, 0u);
}

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory m(4096);
  const auto a = m.alloc(16);
  const std::uint8_t data[4] = {1, 2, 3, 4};
  m.write(a + 4, data, 4);
  std::uint8_t out[4] = {};
  m.read(a + 4, out, 4);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(HostMemory, UnwrittenBytesReadZero) {
  HostMemory m(std::uint64_t{64} << 20);
  const auto a = m.alloc(std::uint64_t{8} << 20);  // huge-page hinted
  const auto b = m.alloc(100);
  const std::uint8_t* pa = m.at(a, std::uint64_t{8} << 20);
  EXPECT_TRUE(std::all_of(pa, pa + (std::uint64_t{8} << 20),
                          [](std::uint8_t x) { return x == 0; }));
  const std::uint8_t* pb = m.at(b, 100);
  EXPECT_TRUE(std::all_of(pb, pb + 100, [](std::uint8_t x) { return x == 0; }));
}

TEST(HostMemory, ArenaNeverMovesAndKeepsBytes) {
  HostMemory m(std::uint64_t{64} << 20);
  const auto a = m.alloc(16);
  const std::uint8_t data[4] = {7, 8, 9, 10};
  m.write(a, data, 4);
  const std::uint8_t* base = std::as_const(m).at(0, 0);
  // Growth across several powers of two must not move the arena.
  for (std::uint64_t len : {4096u, 100000u, 1u << 20, 5u << 20}) m.alloc(len);
  EXPECT_EQ(std::as_const(m).at(0, 0), base);
  std::uint8_t out[4] = {};
  m.read(a, out, 4);
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + 4),
            std::vector<std::uint8_t>(data, data + 4));
}

TEST(HostMemory, SnapshotKeepsBytesFromBeforeAWrite) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(64);
  const std::uint8_t before[4] = {1, 2, 3, 4};
  const std::uint8_t after[4] = {5, 6, 7, 8};
  m.write(a, before, 4);
  const fabric::Payload slice = m.snapshot_slice(a, 4);
  m.write(a, after, 4);
  EXPECT_EQ(std::vector<std::uint8_t>(slice.data(), slice.data() + 4),
            std::vector<std::uint8_t>(before, before + 4));
  const fabric::Payload fresh = m.snapshot_slice(a, 4);
  EXPECT_EQ(std::vector<std::uint8_t>(fresh.data(), fresh.data() + 4),
            std::vector<std::uint8_t>(after, after + 4));
}

TEST(HostMemory, AccessEndingPastBrkAborts) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(100);
  m.at(a, 100);  // exact fit
  std::uint8_t buf[8] = {};
  EXPECT_DEATH(m.at(a + 96, 8), "brk");
  EXPECT_DEATH(std::as_const(m).at(a + 96, 8), "brk");
  EXPECT_DEATH(m.read(a + 96, buf, 8), "brk");
  EXPECT_DEATH(m.write(a + 96, buf, 8), "brk");
  EXPECT_DEATH(m.snapshot_slice(a + 96, 8), "brk");
  EXPECT_DEATH(coll::fill_pattern(m, a, 101, 1, 0), "brk");
  EXPECT_DEATH(coll::check_pattern(m, a, 101, 1, 0), "brk");
}

TEST(HostMemory, ExhaustionAborts) {
  HostMemory m(1024);
  m.alloc(1000);
  EXPECT_DEATH(m.alloc(100), "exhausted");
}

TEST(HostMemory, UnbackedAllocatesAddressSpaceOnly) {
  HostMemory m(std::uint64_t{1} << 40, /*backed=*/false);
  const auto a = m.alloc(std::uint64_t{8} << 30);  // 8 GiB, no RAM used
  const auto b = m.alloc(std::uint64_t{8} << 30);
  EXPECT_GT(b, a);
  EXPECT_DEATH(m.at(a, 1), "unbacked");
}

TEST(HostMemory, UnbackedStillEnforcesCapacity) {
  HostMemory m(1024, /*backed=*/false);
  m.alloc(1000);
  EXPECT_DEATH(m.alloc(100), "exhausted");
}

TEST(Pattern, FillMatchesPatternByteAcrossTiles) {
  constexpr std::uint64_t kLen = 3 * coll::kPatternTile + 123;
  HostMemory m(1 << 20);
  const auto a = m.alloc(kLen);
  coll::fill_pattern(m, a, kLen, 42, 5);
  const std::uint8_t* p = m.at(a, kLen);
  for (std::uint64_t i = 0; i < kLen; ++i)
    ASSERT_EQ(p[i], coll::pattern_byte(42, 5, i)) << "offset " << i;
  EXPECT_TRUE(coll::check_pattern(m, a, kLen, 42, 5));
  EXPECT_FALSE(coll::check_pattern(m, a, kLen, 42, 6));
}

TEST(Pattern, CheckCatchesOneFlippedByte) {
  constexpr std::uint64_t kLen = 2 * coll::kPatternTile + 7;
  HostMemory m(1 << 20);
  const auto a = m.alloc(kLen);
  coll::fill_pattern(m, a, kLen, 3, 1);
  for (std::uint64_t off : {std::uint64_t{0}, coll::kPatternTile - 1,
                            coll::kPatternTile, kLen - 1}) {
    std::uint8_t* p = m.at(a + off, 1);
    *p ^= 0x01;
    EXPECT_FALSE(coll::check_pattern(m, a, kLen, 3, 1)) << "offset " << off;
    *p ^= 0x01;
    EXPECT_TRUE(coll::check_pattern(m, a, kLen, 3, 1));
  }
}

TEST(HostMemory, SnapshotOfReusedRangeServesTheNewBytes) {
  // A range handed from one op to the next: the new owner's bytes must be
  // what a later send snapshots, while a packet still holding the old
  // snapshot keeps the old bytes.
  HostMemory m(std::uint64_t{4} << 20);
  constexpr std::uint64_t kLen = 3 * 4096 + 100;
  const auto a = m.alloc(kLen);
  coll::fill_pattern(m, a, kLen, /*op=*/1, /*origin=*/0);
  const fabric::Payload held = m.snapshot_slice(a, kLen);
  coll::fill_pattern(m, a, kLen, /*op=*/2, /*origin=*/0);
  const fabric::Payload fresh = m.snapshot_slice(a + 4096, 4096);
  for (std::uint64_t i = 0; i < 4096; ++i)
    ASSERT_EQ(fresh.data()[i], coll::pattern_byte(2, 0, 4096 + i)) << i;
  for (std::uint64_t i = 0; i < kLen; ++i)
    ASSERT_EQ(held.data()[i], coll::pattern_byte(1, 0, i)) << i;
}

TEST(HostMemory, EvictedWindowStorageIsRefilledInPlace) {
  // A window no packet holds any more is refilled in place on the next
  // miss; one a packet still holds is left alone.
  HostMemory m(std::uint64_t{4} << 20);
  const auto a = m.alloc(4096);
  coll::fill_pattern(m, a, 4096, 1, 0);
  const std::uint8_t* storage = nullptr;
  {
    const fabric::Payload p = m.snapshot_slice(a, 4096);
    storage = p.data();
  }
  coll::fill_pattern(m, a, 4096, 2, 0);  // invalidates the window
  const fabric::Payload q = m.snapshot_slice(a, 4096);
  EXPECT_EQ(q.data(), storage);
  EXPECT_TRUE(std::equal(q.data(), q.data() + 4096,
                         std::as_const(m).at(a, 4096)));
  coll::fill_pattern(m, a, 4096, 3, 0);  // `q` still holds op 2's bytes
  const fabric::Payload r = m.snapshot_slice(a, 4096);
  EXPECT_NE(r.data(), q.data());
  EXPECT_EQ(q.data()[0], coll::pattern_byte(2, 0, 0));
  EXPECT_EQ(r.data()[0], coll::pattern_byte(3, 0, 0));
}

TEST(Pattern, TilesOfDifferentOpsDifferAlmostEverywhere) {
  // Reused buffers keep an earlier op's bytes; check_pattern must reject
  // them for any other (op, origin), including op ids 256 apart.
  HostMemory m(1 << 20);
  constexpr std::uint64_t kLen = 2 * 4096;
  const auto a = m.alloc(kLen);
  coll::fill_pattern(m, a, kLen, 7, 1);
  for (const auto& [op, origin] :
       {std::pair<std::uint16_t, std::size_t>{8, 1}, {7 + 256, 1}, {7, 2},
        {6, 0}}) {
    EXPECT_FALSE(coll::check_pattern(m, a, kLen, op, origin)) << op;
    std::size_t same = 0;
    for (std::uint64_t i = 0; i < kLen; ++i)
      same += coll::pattern_byte(op, origin, i) == coll::pattern_byte(7, 1, i);
    EXPECT_LT(same, kLen / 64) << op;  // ~1/256 by chance
  }
}

TEST(MrTable, DeregisterForgetsTheRkey) {
  MrTable t;
  const auto mr = t.register_with_rkey(64, 256, 4242);
  t.deregister(mr.rkey);
  EXPECT_FALSE(t.has_rkey(4242));
  EXPECT_DEATH(t.check_remote(4242, 64, 1), "unknown rkey");
  EXPECT_DEATH(t.deregister(4242), "unknown rkey");
  t.register_with_rkey(64, 256, 4242);  // the key may be registered again
  EXPECT_TRUE(t.has_rkey(4242));
}

TEST(MrTable, SequentialKeys) {
  MrTable t;
  const auto a = t.register_region(0, 100);
  const auto b = t.register_region(200, 100);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_TRUE(t.has_rkey(a.rkey));
}

TEST(MrTable, ExplicitRkey) {
  MrTable t;
  const auto mr = t.register_with_rkey(64, 256, 9999);
  EXPECT_EQ(mr.rkey, 9999u);
  EXPECT_TRUE(t.has_rkey(9999));
  EXPECT_DEATH(t.register_with_rkey(0, 10, 9999), "duplicate");
}

TEST(MrTable, BoundsChecking) {
  MrTable t;
  const auto mr = t.register_region(1000, 100);
  t.check_remote(mr.rkey, 1000, 100);   // exact fit
  t.check_remote(mr.rkey, 1050, 50);    // tail
  EXPECT_DEATH(t.check_remote(mr.rkey, 1050, 51), "out of registered");
  EXPECT_DEATH(t.check_remote(mr.rkey, 999, 1), "out of registered");
  EXPECT_DEATH(t.check_remote(12345, 1000, 1), "unknown rkey");
}

}  // namespace
}  // namespace mccl::rdma
