// Per-communicator symmetric buffer pool: best-fit reuse, identical offsets
// on every rank, the release rule (an op returns its blocks only once it is
// done and nothing it posted can still touch them), the rkey fence against
// late traffic, staging slots that late chunks hand back, and long runs
// that stay inside one arena.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/coll/mcast_coll.hpp"
#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

std::uint64_t brk_of(World& w, std::size_t rank) {
  return w.comm->ep(rank).nic().memory().brk();
}

TEST(BufferPool, BestFitReuseAndFreshBlocksAreSymmetric) {
  World w(3);
  const SymmetricBlock a = w.comm->acquire_block(1000);
  const SymmetricBlock b = w.comm->acquire_block(3000);
  const SymmetricBlock c = w.comm->acquire_block(2000);
  EXPECT_EQ(w.comm->pool_blocks(), 3u);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(brk_of(w, r), brk_of(w, 0));
  w.comm->release_block(a);
  w.comm->release_block(b);
  w.comm->release_block(c);
  EXPECT_EQ(w.comm->pool_free_blocks(), 3u);
  // The smallest free block that fits, not the first released.
  EXPECT_EQ(w.comm->acquire_block(1500).addr, c.addr);
  EXPECT_EQ(w.comm->acquire_block(1000).addr, a.addr);
  EXPECT_EQ(w.comm->acquire_block(2500).addr, b.addr);
  // Nothing free fits: a fresh block past everything allocated so far.
  const std::uint64_t before = brk_of(w, 0);
  const SymmetricBlock d = w.comm->acquire_block(4000);
  EXPECT_GE(d.addr, before);
  EXPECT_EQ(w.comm->pool_blocks(), 4u);
}

TEST(BufferPool, FreshBlocksStaySymmetricAcrossDriftedArenas) {
  // A second communicator on a subset of the hosts moves their bump
  // pointers apart; a fresh block of the first still lands at one offset.
  Cluster cluster(fabric::make_star(4, {}), {});
  Communicator wide(cluster, {0, 1, 2, 3}, {});
  Communicator narrow(cluster, {1, 2}, {});
  narrow.acquire_block(12345);
  const SymmetricBlock blk = wide.acquire_block(5000);
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_GE(wide.ep(r).nic().memory().brk(), blk.addr + blk.len);
  EXPECT_TRUE(wide.broadcast(2, 64 * 1024, BcastAlgo::kMcast).data_verified);
}

TEST(BufferPool, FinishedOpReturnsBlocksAndTheNextOpReusesThem) {
  for (const Transport t : {Transport::kUd, Transport::kUcMcast}) {
    CommConfig cfg;
    cfg.transport = t;
    World w(3, cfg);
    auto& first = static_cast<McastCollective&>(
        w.comm->start_broadcast(0, 256 * 1024, BcastAlgo::kMcast));
    const OpResult r1 = w.comm->finish(first);
    ASSERT_TRUE(r1.data_verified);
    EXPECT_TRUE(first.released());
    const std::uint64_t brk = brk_of(w, 0);
    auto& second = static_cast<McastCollective&>(
        w.comm->start_broadcast(1, 128 * 1024, BcastAlgo::kMcast));
    EXPECT_EQ(second.recvbuf_addr(), first.recvbuf_addr());
    EXPECT_EQ(brk_of(w, 0), brk);
    EXPECT_TRUE(w.comm->finish(second).data_verified);
    EXPECT_EQ(w.comm->pool_blocks(), 2u);
  }
}

TEST(BufferPool, ConcurrentOpsNeverShareABlock) {
  World w(4);
  auto& a = static_cast<McastCollective&>(
      w.comm->start_allgather(32 * 1024, AllgatherAlgo::kMcast));
  auto& b = static_cast<McastCollective&>(
      w.comm->start_broadcast(1, 32 * 1024, BcastAlgo::kMcast));
  EXPECT_NE(a.recvbuf_addr(), b.recvbuf_addr());
  w.cluster->run_until_done([&] { return a.done() && b.done(); });
  EXPECT_TRUE(a.verify());
  EXPECT_TRUE(b.verify());
  EXPECT_EQ(w.comm->pool_free_blocks(), 4u);
}

TEST(BufferPool, LateUcMulticastWriteIsFencedFromTheNextOp) {
  // Leaf 2's link delays everything that crosses it during the multicast
  // window by 3 ms. The leaf's cutoff fires, it fetches the block from rank
  // 1 once the window has closed, the op finishes and releases its buffers,
  // and the next Bcast takes the same range. When the delayed UC multicast
  // writes of the first op finally arrive, their rkey is gone: the leaf
  // drops and counts them, and the second op's bytes survive.
  CommConfig cfg;
  cfg.transport = Transport::kUcMcast;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  constexpr std::uint64_t kBytes = 64 * 1024;
  // Where the clean run's leaves finish their barrier: the multicast
  // window opens there.
  Time window_open = 0;
  {
    World clean(3, cfg);
    const OpResult res = clean.comm->broadcast(0, kBytes, BcastAlgo::kMcast);
    ASSERT_TRUE(res.data_verified);
    window_open = std::max(res.start + res.max_phases.barrier, Time{1});
  }
  constexpr Time kDelay = 3 * kMillisecond;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {  // star: host 2 <-> switch 3
      fabric::FaultEvent::degrade(window_open, 2, 3, 1.0, kDelay),
      fabric::FaultEvent::restore(window_open + 20 * kMicrosecond, 2, 3)};
  World w(3, cfg, kcfg);
  auto& first = static_cast<McastCollective&>(
      w.comm->start_broadcast(0, kBytes, BcastAlgo::kMcast));
  const OpResult r1 = w.comm->finish(first);
  ASSERT_TRUE(r1.data_verified);
  EXPECT_GT(r1.fetched_chunks, 0u);
  EXPECT_LT(r1.finish, window_open + kDelay);
  ASSERT_TRUE(first.released());

  auto& second = static_cast<McastCollective&>(
      w.comm->start_broadcast(1, kBytes, BcastAlgo::kMcast));
  ASSERT_EQ(second.recvbuf_addr(), first.recvbuf_addr());
  ASSERT_TRUE(w.comm->finish(second).data_verified);
  w.cluster->engine().run();  // the delayed writes land now
  EXPECT_GT(w.cluster->nic(2).uc_rkey_drops(), 0u);
  EXPECT_EQ(w.cluster->nic(1).uc_rkey_drops(), 0u);
  EXPECT_TRUE(second.verify());
}

TEST(StagingRing, LateDuplicateChunksReturnTheirSlots) {
  // Leaf 2's link delays the UD multicast by 3 ms, so the leaf recovers
  // the block by fetch and the op releases. The delayed chunks then reach
  // a released op that already holds them: nothing copies them, and each
  // staging slot must go straight back to the receive queue. Once the
  // engine drains, every rank's ring is full again.
  CommConfig cfg;
  cfg.transport = Transport::kUd;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  constexpr std::uint64_t kBytes = 64 * 1024;
  Time window_open = 0;
  {
    World clean(3, cfg);
    const OpResult res = clean.comm->broadcast(0, kBytes, BcastAlgo::kMcast);
    ASSERT_TRUE(res.data_verified);
    window_open = std::max(res.start + res.max_phases.barrier, Time{1});
  }
  constexpr Time kDelay = 3 * kMillisecond;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {  // star: host 2 <-> switch 3
      fabric::FaultEvent::degrade(window_open, 2, 3, 1.0, kDelay),
      fabric::FaultEvent::restore(window_open + 20 * kMicrosecond, 2, 3)};
  World w(3, cfg, kcfg);
  auto& op = static_cast<McastCollective&>(
      w.comm->start_broadcast(0, kBytes, BcastAlgo::kMcast));
  const OpResult res = w.comm->finish(op);
  ASSERT_TRUE(res.data_verified);
  EXPECT_GT(res.fetched_chunks, 0u);
  EXPECT_LT(res.finish, window_open + kDelay);
  w.cluster->engine().run();  // the delayed chunks land now
  ASSERT_TRUE(op.released());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t s = 0; s < w.comm->ep(r).num_subgroups(); ++s)
      EXPECT_EQ(w.comm->ep(r).subgroup(s).posted, cfg.staging_slots)
          << "rank " << r << " subgroup " << s;
}

TEST(BufferPool, FetchReadsQueuedBeforeMulticastCompletesKeepTheBlocks) {
  // Leaf 2's link delays the first Bcast's multicast by about 157 us, so
  // those late chunks reach leaf 2 while the second Bcast (root 1) is
  // multicasting, and leaf 2's receive worker falls behind. The second
  // op's cutoff fires, and its fetch ACK arrives while the chunks it is
  // missing still wait on that worker: the reads for them queue behind
  // chunks that then complete the block. Leaf 2 is the last rank, so the
  // op is done while reads are still queued. Counted from the moment they
  // are queued, they keep the op's blocks and rkey until they have run;
  // counted only once posted, the op released first and the next read
  // named a deregistered rkey. The delay is swept over a few microseconds
  // around the race window.
  CommConfig cfg;
  cfg.transport = Transport::kUd;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  constexpr std::uint64_t kBytes = 1024 * 1024;
  Time window_open = 0;
  {
    World clean(3, cfg);
    const OpResult res = clean.comm->broadcast(0, kBytes, BcastAlgo::kMcast);
    ASSERT_TRUE(res.data_verified);
    window_open = std::max(res.start + res.max_phases.barrier, Time{1});
  }
  std::size_t done_with_reads_queued = 0;
  for (Time delay = 150 * kMicrosecond; delay <= 166 * kMicrosecond;
       delay += kMicrosecond / 2) {
    ClusterConfig kcfg;
    kcfg.fabric.faults.events = {  // star: host 2 <-> switch 3
        fabric::FaultEvent::degrade(window_open, 2, 3, 1.0, delay),
        fabric::FaultEvent::restore(window_open + 20 * kMicrosecond, 2, 3)};
    World w(3, cfg, kcfg);
    ASSERT_TRUE(w.comm->broadcast(0, kBytes, BcastAlgo::kMcast).data_verified)
        << "delay " << delay;
    OpBase& second = w.comm->start_broadcast(1, kBytes, BcastAlgo::kMcast);
    ASSERT_TRUE(w.comm->finish(second).data_verified) << "delay " << delay;
    if (!second.released()) ++done_with_reads_queued;
    w.cluster->engine().run();
    EXPECT_TRUE(second.released()) << "delay " << delay;
    EXPECT_TRUE(second.verify()) << "delay " << delay;
  }
  EXPECT_GT(done_with_reads_queued, 0u);
}

// --- long runs: a steady workload stays inside one arena -----------------

TEST(BufferPoolLongRun, TwoHundredEightMiBBroadcastsOnOneCommunicator) {
  // 200 x (8 MiB send + 8 MiB receive) is 3.2 GiB of buffers: more than the
  // default 2 GiB arena holds ("host memory exhausted" near op 128) unless
  // ops return what they took.
  for (const Transport t : {Transport::kUd, Transport::kUcMcast}) {
    CommConfig cfg;
    cfg.transport = t;
    World w(2, cfg);
    std::uint64_t brk_after_first = 0;
    for (int i = 0; i < 200; ++i) {
      const OpResult res =
          w.comm->broadcast(0, 8 * 1024 * 1024, BcastAlgo::kMcast);
      ASSERT_TRUE(res.data_verified) << "op " << i;
      if (i == 0) brk_after_first = brk_of(w, 0);
    }
    EXPECT_EQ(brk_of(w, 0), brk_after_first);
    EXPECT_EQ(w.comm->pool_blocks(), 2u);
  }
}

TEST(BufferPoolLongRun, RingAllgatherAndReduceScatterStayFlat) {
  World w(4);
  std::uint64_t brk = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        w.comm->allgather(256 * 1024, AllgatherAlgo::kRing).data_verified)
        << "allgather " << i;
    ASSERT_TRUE(w.comm->reduce_scatter(64 * 1024, ReduceScatterAlgo::kRing)
                    .data_verified)
        << "reduce-scatter " << i;
    if (i == 0) brk = brk_of(w, 0);
    ASSERT_EQ(brk_of(w, 0), brk) << "op pair " << i;
  }
}

}  // namespace
}  // namespace mccl::coll
