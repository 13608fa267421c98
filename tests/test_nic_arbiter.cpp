// NIC egress-arbiter tests: fair round-robin across TX queues, FIFO within
// a queue, departure callbacks, and the no-head-of-line-blocking guarantee
// that keeps concurrent collectives honest. Also the on-NIC DMA engine
// (post_local_copy): FIFO completion times and crash suppression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/rdma/nic.hpp"

namespace mccl::rdma {
namespace {

struct ArbiterWorld {
  sim::Engine engine;
  fabric::Fabric fab;
  Nic a, b;
  std::vector<std::uint32_t> arrivals;  // th.imm of packets reaching host 1

  ArbiterWorld()
      : fab(engine, fabric::make_back_to_back({100.0, 0}), {}),
        a(engine, fab, 0, {}),
        b(engine, fab, 1, {}) {
    fab.set_delivery(1, [this](const fabric::PacketPtr& p) {
      arrivals.push_back(p->th.imm);
    });
    // Nic b installed its own delivery; override back to our recorder.
    fab.set_delivery(1, [this](const fabric::PacketPtr& p) {
      arrivals.push_back(p->th.imm);
    });
  }

  fabric::PacketPtr packet(std::uint32_t imm, std::uint32_t size = 1000) {
    fabric::PacketRef p = a.make_packet();
    fabric::Packet& m = p.mut();
    m.src_host = 0;
    m.dst_host = 1;
    m.wire_size = size;
    m.th.imm = imm;
    return p;
  }
};

TEST(NicArbiter, SingleQueueIsFifo) {
  ArbiterWorld w;
  for (std::uint32_t i = 0; i < 10; ++i) w.a.transmit(1, w.packet(i));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(w.arrivals[i], i);
}

TEST(NicArbiter, RoundRobinAcrossQueues) {
  ArbiterWorld w;
  // Queue 1 floods first; queue 2's packet must not wait behind all of it.
  for (std::uint32_t i = 0; i < 8; ++i) w.a.transmit(1, w.packet(100 + i));
  w.a.transmit(2, w.packet(200));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), 9u);
  // The queue-2 packet departs after at most two queue-1 packets (one in
  // flight when it was enqueued, one round-robin turn).
  const auto pos = std::find(w.arrivals.begin(), w.arrivals.end(), 200u) -
                   w.arrivals.begin();
  EXPECT_LE(pos, 2);
}

TEST(NicArbiter, BulkFlowDoesNotStarveControl) {
  ArbiterWorld w;
  // A 256-packet bulk burst on one queue; small control packets trickle in
  // on another. Every control packet must depart within ~2 packet times.
  for (std::uint32_t i = 0; i < 256; ++i)
    w.a.transmit(7, w.packet(i, 4096));
  std::vector<Time> ctrl_departures;
  for (std::uint32_t c = 0; c < 4; ++c) {
    w.a.transmit(8, w.packet(1000 + c, 64),
                 [&](Time dep) { ctrl_departures.push_back(dep); });
  }
  w.engine.run();
  ASSERT_EQ(ctrl_departures.size(), 4u);
  const Time bulk_pkt = serialization_time(4096, 100.0);
  // 4 control packets interleaved with bulk: the last one leaves within
  // ~(4 bulk + 4 ctrl + 1 in-flight) packet times, far from 256.
  EXPECT_LT(ctrl_departures.back(), 7 * bulk_pkt);
}

TEST(NicArbiter, DepartureCallbackMatchesWireTime) {
  ArbiterWorld w;
  Time dep1 = 0, dep2 = 0;
  w.a.transmit(1, w.packet(1, 1000), [&](Time t) { dep1 = t; });
  w.a.transmit(1, w.packet(2, 1000), [&](Time t) { dep2 = t; });
  w.engine.run();
  const Time pkt = serialization_time(1000, 100.0);
  EXPECT_EQ(dep1, pkt);
  EXPECT_EQ(dep2, 2 * pkt);
}

TEST(NicArbiter, ManyQueuesShareEvenly) {
  ArbiterWorld w;
  constexpr int kQueues = 4, kPer = 16;
  for (int q = 0; q < kQueues; ++q)
    for (int i = 0; i < kPer; ++i)
      w.a.transmit(static_cast<std::uint32_t>(q),
                   w.packet(static_cast<std::uint32_t>(q * 1000 + i)));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), static_cast<std::size_t>(kQueues * kPer));
  // After the first full round, arrivals interleave: within any window of
  // kQueues consecutive arrivals, all queues appear.
  for (std::size_t base = kQueues; base + kQueues <= w.arrivals.size();
       base += kQueues) {
    std::vector<bool> seen(kQueues, false);
    for (int k = 0; k < kQueues; ++k)
      seen[w.arrivals[base + k] / 1000] = true;
    for (int q = 0; q < kQueues; ++q) EXPECT_TRUE(seen[q]) << base;
  }
}

// --- On-NIC DMA engine --------------------------------------------------------

struct DmaWorld {
  sim::Engine engine;
  fabric::Fabric fab;
  Nic nic;

  DmaWorld()
      : fab(engine, fabric::make_back_to_back({100.0, 0}), {}),
        nic(engine, fab, 0, {}) {}

  /// Allocates `len` bytes holding a seed-dependent pattern.
  std::uint64_t filled(std::uint64_t len, std::uint8_t seed) {
    const std::uint64_t addr = nic.memory().alloc(len);
    std::uint8_t* p = nic.memory().at(addr, len);
    for (std::uint64_t i = 0; i < len; ++i)
      p[i] = static_cast<std::uint8_t>(seed * 31 + i);
    return addr;
  }

  bool same(std::uint64_t a, std::uint64_t b, std::uint64_t len) {
    return std::memcmp(nic.memory().at(a, len), nic.memory().at(b, len),
                       len) == 0;
  }

  bool zero(std::uint64_t a, std::uint64_t len) {
    const std::uint8_t* p = nic.memory().at(a, len);
    return std::all_of(p, p + len, [](std::uint8_t b) { return b == 0; });
  }
};

TEST(NicDma, CopiesCompleteInPostOrderAtModeledTimes) {
  DmaWorld w;
  // Three copies at t=0 (the short last one must still finish last), one
  // posted at 1 us while the engine is busy, one at 100 us when it is idle.
  struct Post {
    Time at;
    std::uint64_t len;
  };
  const std::vector<Post> posts = {{0, 64 * KiB},
                                   {0, 4 * KiB},
                                   {0, 1 * KiB},
                                   {1 * kMicrosecond, 8 * KiB},
                                   {100 * kMicrosecond, 2 * KiB}};
  std::vector<std::uint64_t> src, dst;
  for (std::size_t i = 0; i < posts.size(); ++i) {
    src.push_back(w.filled(posts[i].len, static_cast<std::uint8_t>(i + 1)));
    dst.push_back(w.nic.memory().alloc(posts[i].len));
  }
  std::vector<std::size_t> order;
  std::vector<Time> done_at(posts.size(), -1);
  for (std::size_t i = 0; i < posts.size(); ++i) {
    w.engine.schedule_at(posts[i].at, [&, i] {
      w.nic.post_local_copy(src[i], dst[i], posts[i].len, [&, i] {
        order.push_back(i);
        done_at[i] = w.engine.now();
      });
    });
  }
  w.engine.run();

  ASSERT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  Time free_at = 0;
  for (std::size_t i = 0; i < posts.size(); ++i) {
    free_at = std::max(posts[i].at, free_at) +
              serialization_time(posts[i].len, kDmaGbps);
    EXPECT_EQ(done_at[i], free_at + kDmaLatency) << "copy " << i;
    EXPECT_TRUE(w.same(src[i], dst[i], posts[i].len)) << "copy " << i;
  }
  EXPECT_EQ(w.nic.dma_ops(), posts.size());
}

TEST(NicDma, CrashBeforeCompletionDropsCallbackAndBytes) {
  DmaWorld w;
  const std::uint64_t len = 4 * KiB;
  const std::uint64_t src = w.filled(len, 7);
  const std::uint64_t dst = w.nic.memory().alloc(len);
  bool done = false;
  w.nic.post_local_copy(src, dst, len, [&] { done = true; });
  w.engine.schedule_at(1 * kNanosecond, [&] { w.nic.set_crashed(true); });
  w.engine.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(w.zero(dst, len));
}

TEST(NicDma, CopiesPostedAfterRecoveryComplete) {
  DmaWorld w;
  const std::uint64_t len = 4 * KiB;
  const std::uint64_t src = w.filled(len, 9);
  const std::uint64_t lost = w.nic.memory().alloc(len);
  const std::uint64_t dst = w.nic.memory().alloc(len);
  int lost_done = 0, done = 0;
  w.nic.post_local_copy(src, lost, len, [&] { ++lost_done; });
  w.nic.set_crashed(true);
  w.engine.run();  // the dropped completion still leaves the DMA queue
  w.nic.set_crashed(false);
  w.nic.post_local_copy(src, dst, len, [&] { ++done; });
  w.engine.run();
  EXPECT_EQ(lost_done, 0);
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(w.zero(lost, len));
  EXPECT_TRUE(w.same(src, dst, len));
}

}  // namespace
}  // namespace mccl::rdma
