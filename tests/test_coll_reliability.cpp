// Reliability slow-path tests: fabric drops, RNR behaviour, out-of-order
// delivery, recursive fetch chains — the protocol must deliver correct
// bytes in all of them (Section III-C).
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

CommConfig quick_recovery() {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  return cfg;
}

TEST(Reliability, BroadcastRecoversFromSingleDrop) {
  World w(4, quick_recovery());
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        // Drop the 5th multicast datagram on its way to host 2.
        return p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
               ++mcast_pkts == 5;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 1u);
  EXPECT_GT(res.max_phases.reliability, 0);
}

TEST(Reliability, BroadcastRecoversFromBurstLoss) {
  World w(4, quick_recovery());
  int count = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op != fabric::TransportOp::kUdSend || to != 1) return false;
        ++count;
        return count >= 3 && count < 10;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 7u);
}

TEST(Reliability, AllgatherRecoversFromRandomLoss) {
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  kcfg.fabric.drop_prob = 0.01;
  kcfg.fabric.seed = 77;
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(Reliability, HeavyLossStillCorrect) {
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  kcfg.fabric.drop_prob = 0.05;  // 5% loss: far beyond lossless assumptions
  kcfg.fabric.seed = 13;
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(32 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GT(res.fetched_chunks, 0u);
}

TEST(Reliability, RecursiveFetchWhenLeftNeighborAlsoDropped) {
  // Drop the same chunk toward hosts 1 AND 2: host 2 fetches from host 1,
  // which must defer its ACK until it recovered (from host 0, the root).
  World w(4, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend &&
               (to == 1 || to == 2) && p.th.has_imm &&
               imm_chunk(p.th.imm) == 3;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 2u);
}

TEST(Reliability, AllMulticastLostFallsBackToRing) {
  // Worst case: multicast is completely dead; the fetch ring degenerates to
  // a neighbor-to-neighbor (ring) transfer and must still complete.
  World w(3, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && p.is_mcast();
      });
  const OpResult res = w.comm->broadcast(0, 32 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 16u);  // 8 chunks x 2 leaves
}

TEST(Reliability, UcBrokenMessageRecovered) {
  // UC mode: losing one segment kills the whole chunk message; the fetch
  // layer must restore it.
  CommConfig cfg = quick_recovery();
  cfg.transport = Transport::kUcMcast;
  cfg.chunk_bytes = 16 * 1024;  // multi-MTU chunks
  World w(3, cfg);
  int segs = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUcWriteSeg && to == 1 &&
               ++segs == 6;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, OutOfOrderDeliveryHandledByStaging) {
  // Adaptive routing + jitter reorders datagrams across spines; the PSN in
  // the immediate places every chunk correctly (Section III-B).
  CommConfig cfg;
  ClusterConfig kcfg;
  kcfg.fabric.routing = fabric::RoutingMode::kAdaptive;
  kcfg.fabric.latency_jitter = 2 * kMicrosecond;
  kcfg.fabric.seed = 3;
  World w(8, cfg, kcfg, /*fat_tree=*/true);
  const OpResult res = w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(Reliability, RnrDropsRecovered) {
  // A tiny staging ring forces receiver-not-ready drops under a burst; the
  // slow path must fill the holes.
  CommConfig cfg = quick_recovery();
  cfg.staging_slots = 4;
  World w(3, cfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  // With only 4 slots and a 128-chunk buffer, drops are essentially
  // guaranteed at full line rate.
  EXPECT_GT(res.rnr_drops + res.fetched_chunks, 0u);
}

TEST(Reliability, DropsOnControlPlaneAreAbsorbedByRc) {
  // Control packets (barrier, final) ride RC: random loss there must only
  // delay, never corrupt.
  ClusterConfig kcfg;
  kcfg.fabric.drop_prob = 0.02;
  kcfg.fabric.seed = 5;
  CommConfig cfg = quick_recovery();
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(Reliability, FetchedBytesAreCorrectNotJustPresent) {
  // Drop a specific chunk everywhere and verify its exact bytes after
  // recovery (guards against fetching from the wrong offset).
  World w(3, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && p.th.has_imm &&
               imm_chunk(p.th.imm) == 7;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 2u);
}

TEST(Reliability, DeadLeftNeighborFailsOverToNextRank) {
  // Host 2 loses a multicast chunk AND its left neighbor (host 1) is
  // unreachable from it for the first 400us — every 2->1 packet black-holes,
  // so the fetch request is never answered. Retries back off, exhaust the
  // cap, and rank 2 fails over to rank 1's own left neighbor (rank 0, the
  // root), which acks immediately; the op completes verified.
  CommConfig cfg = quick_recovery();
  cfg.fetch_retry_timeout = 30 * kMicrosecond;
  World w(4, cfg);
  auto& engine = w.cluster->engine();
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
            ++mcast_pkts == 5)
          return true;  // the chunk host 2 will have to fetch
        // The "dead" left neighbor: RC retransmits into the void until the
        // window closes (after which the blocked kFetchReq/kFinal drain).
        return p.src_host == 2 && p.dst_host == 1 &&
               engine.now() < 400 * kMicrosecond;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_GE(res.fetch_retries, 2u);    // backoff against the dead target
  EXPECT_GE(res.fetch_failovers, 1u);  // then walk left past it
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, LostFetchRequestIsRetriedWithoutFailover) {
  // Transient control-plane outage: the first fetch request (and the RC
  // retransmits inside the window) vanish, but the target itself is fine.
  // A retry after the window must succeed against the SAME target.
  CommConfig cfg = quick_recovery();
  cfg.fetch_retry_timeout = 150 * kMicrosecond;  // first retry at ~210us
  World w(4, cfg);
  auto& engine = w.cluster->engine();
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
            ++mcast_pkts == 5)
          return true;
        return p.src_host == 2 && p.dst_host == 1 &&
               engine.now() < 180 * kMicrosecond;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetch_failovers, 0u);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, AdaptiveCutoffTightensAfterLossyOps) {
  // Back-to-back lossy ops halve the effective alpha (floored); a clean op
  // relaxes it back toward the configured value.
  CommConfig cfg = quick_recovery();  // alpha = 50us
  cfg.cutoff_alpha_min = 10 * kMicrosecond;
  ClusterConfig kcfg;
  kcfg.fabric.drop_prob = 0.02;
  kcfg.fabric.seed = 7;
  World w(4, cfg, kcfg);
  EXPECT_EQ(w.comm->effective_cutoff_alpha(), 50 * kMicrosecond);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(
        w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast).data_verified);
  EXPECT_LT(w.comm->effective_cutoff_alpha(), 50 * kMicrosecond);
  EXPECT_GE(w.comm->effective_cutoff_alpha(), 10 * kMicrosecond);
}

TEST(Reliability, BaselinesSurviveLossViaRc) {
  ClusterConfig kcfg;
  kcfg.fabric.drop_prob = 0.01;
  kcfg.fabric.seed = 21;
  World w(4, {}, kcfg);
  EXPECT_TRUE(
      w.comm->allgather(32 * 1024, AllgatherAlgo::kRing).data_verified);
  EXPECT_TRUE(
      w.comm->broadcast(0, 32 * 1024, BcastAlgo::kBinomial).data_verified);
}

TEST(Reliability, FetchTargetCrashWhileAwaitingAckFailsOver) {
  // Engineered worst case for the repair path: all multicast to ranks 1 and
  // 2 is dropped, so at cutoff rank 2 fetches from rank 1 — whose ACK is
  // deferred (it lacks the data too) while it recursively fetches from the
  // root. Rank 1 then crashes mid-chain: whatever state rank 2's fetch was
  // in (awaiting the ACK, or with RDMA Reads already in flight toward the
  // dead NIC), it must discount and fail over to the root directly.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(180 * kMicrosecond, 1)};
  World w(4, quick_recovery(), kcfg);
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend &&
               (to == 1 || to == 2);
      });
  const OpResult res =
      w.comm->broadcast(0, 1024 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{1}));
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, MassCrashLeavesSoleSurvivorDegradedButDone) {
  // Three of four ranks die mid-allgather. The survivor's census (against
  // itself) re-roots blocks it already holds in full and abandons the rest:
  // the op ends structurally — kOk or kPartial naming a subset of the dead
  // roots' blocks — with the survivor's buffers verified, and the verdict
  // cross-checked against the metrics registry.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(20 * kMicrosecond, 0),
      fabric::FaultEvent::node_crash(22 * kMicrosecond, 1),
      fabric::FaultEvent::node_crash(24 * kMicrosecond, 2)};
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(512 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{0, 1, 2}));
  for (const std::size_t b : res.missing_blocks) EXPECT_LT(b, 3u);
  auto& metrics = w.cluster->telemetry().metrics;
  EXPECT_EQ(metrics.counter("coll.missing_blocks").value(),
            res.missing_blocks.size());
  EXPECT_EQ(metrics.counter("coll.reroots").value(), res.reroots);
  EXPECT_EQ(metrics
                .counter("coll.ops",
                         {{"result", to_string(res.status)}})
                .value(),
            1u);
}

TEST(Reliability, DetectorConfirmationsAreExactAndPosthumousIgnored) {
  // Every survivor must confirm exactly the crashed peers — no false
  // positives on live-but-busy ranks — and heartbeats already on the wire
  // at crash time (or confirmed-late stragglers) count as posthumous.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 2)};
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_TRUE(res.data_verified);
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  for (std::size_t obs = 0; obs < 4; ++obs) {
    if (obs == 2) continue;
    for (std::size_t peer = 0; peer < 4; ++peer) {
      if (peer == obs) continue;
      EXPECT_EQ(det->dead(obs, peer), peer == 2)
          << "observer " << obs << " peer " << peer;
    }
  }
  // 3 survivors x 1 dead peer.
  EXPECT_EQ(det->confirmed_dead(), 3u);
}

TEST(Reliability, RecoveredHostStaysExpelledFromItsCommunicator) {
  // Crash-stop membership: host 2 crashes, every survivor confirms it, and
  // then the host comes back while the communicator keeps running ops.
  // Nobody heartbeats the recovered rank any more, so were its detector to
  // run it would confirm every peer dead and shrink the membership to
  // nothing. It must stay expelled instead: it neither ticks nor counts as
  // a confirmer, and it rejoins only through a new communicator.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 2),
      fabric::FaultEvent::node_recover(750 * kMicrosecond, 2)};
  World w(8, quick_recovery(), kcfg);
  for (int op = 0; op < 4; ++op) {
    if (op > 0) {
      ASSERT_EQ(w.comm->presumed_alive(), 7u) << "before op " << op;
    }
    const OpResult res =
        w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
    EXPECT_FALSE(res.failed) << "op " << op;
    EXPECT_TRUE(res.data_verified) << "op " << op;
    // After op 0 (which waits out the confirmation) the survivors run
    // clean ~110 us ops; the recovered rank must not hold them up.
    EXPECT_LT(res.duration(),
              (op == 0 ? 1000 : 300) * kMicrosecond) << "op " << op;
  }
  ASSERT_EQ(w.comm->presumed_alive(), 7u);
  // Exactly the 7 survivors' confirmations of rank 2.
  EXPECT_EQ(w.comm->detector()->confirmed_dead(), 7u);
}

TEST(Reliability, RingDetectorHeartbeatsAndConfirmationsScaleWithP) {
  // Each rank leases one ring neighbour, so heartbeats grow O(P) per
  // interval, and a confirmation reaches every survivor through one relay.
  for (const std::size_t P : {std::size_t{8}, std::size_t{32}}) {
    {
      World w(P, {}, {}, /*fat_tree=*/true);
      const OpResult res =
          w.comm->broadcast(0, 4 * 1024 * 1024, BcastAlgo::kMcast);
      ASSERT_TRUE(res.data_verified) << "P=" << P;
      const FailureDetector* det = w.comm->detector();
      const Time interval = det->config().heartbeat_interval;
      const auto intervals =
          static_cast<std::uint64_t>((res.duration() + interval - 1) /
                                     interval);
      ASSERT_GT(intervals, 2u) << "P=" << P;  // the detector did tick
      EXPECT_GT(det->heartbeats_sent(), 0u) << "P=" << P;
      EXPECT_LE(det->heartbeats_sent(), P * (intervals + 1)) << "P=" << P;
    }
    {
      const std::size_t victim = P / 2 + 1;
      ClusterConfig kcfg;
      kcfg.fabric.faults.events = {fabric::FaultEvent::node_crash(
          30 * kMicrosecond, static_cast<fabric::NodeId>(victim))};
      World w(P, quick_recovery(), kcfg, /*fat_tree=*/true);
      const OpResult res =
          w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
      EXPECT_FALSE(res.failed) << "P=" << P;
      EXPECT_TRUE(res.data_verified) << "P=" << P;
      const FailureDetector* det = w.comm->detector();
      for (std::size_t obs = 0; obs < P; ++obs) {
        if (obs == victim) continue;
        for (std::size_t peer = 0; peer < P; ++peer)
          EXPECT_EQ(det->dead(obs, peer), peer == victim)
              << "P=" << P << " observer " << obs << " peer " << peer;
        EXPECT_TRUE(det->validate_view(obs)) << "P=" << P << " obs " << obs;
      }
      EXPECT_EQ(det->confirmed_dead(), P - 1) << "P=" << P;
    }
  }
}

}  // namespace
}  // namespace mccl::coll
