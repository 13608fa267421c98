#include "src/fabric/storm.hpp"

#include <memory>

#include "src/common/check.hpp"
#include "src/fabric/partition.hpp"

namespace mccl::fabric {

namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;
constexpr std::uint32_t kHeaderBytes = 64;
constexpr std::uint16_t kChunkKind = 1;
constexpr std::uint16_t kAckKind = 2;
constexpr std::uint32_t kAckBytes = 96;
/// engine_storm's conservative lookahead L; every reschedule waits [L, 5L).
constexpr Time kEngineLookahead = 500 * kNanosecond;
/// Per-mille of engine_storm reschedules that hop to another shard.
constexpr std::uint32_t kCrossPermille = 150;
/// allgather/chaos storms: rank r starts injecting at r * kStagger.
constexpr Time kStagger = 10 * kNanosecond;

}  // namespace

// --- engine_storm ----------------------------------------------------------

namespace {

/// Self-rescheduling LCG timers. Every tick folds into its shard's
/// accumulator (owner-only, so no synchronization), then reschedules —
/// sometimes onto another shard through the cross-shard rings. All decisions
/// derive from (shard, rng, budget), never from thread identity.
struct EngineStorm {
  struct alignas(64) ShardAcc {
    std::uint64_t hash = debug::kHashSeed;
    std::uint64_t ticks = 0;
  };

  sim::ParallelEngine& eng;
  std::vector<ShardAcc> acc;
  std::uint64_t budget_per_shard;

  void tick(int s, std::uint64_t rng) {
    ShardAcc& a = acc[static_cast<std::size_t>(s)];
    a.hash = debug::mix(
        a.hash,
        (static_cast<std::uint64_t>(eng.shard(s).now()) << 8) ^ rng);
    if (++a.ticks >= budget_per_shard) return;  // this chain ends
    rng = rng * kLcgMul + kLcgAdd;
    const Time delay = kEngineLookahead +
                       static_cast<Time>((rng >> 33) % (4 * kEngineLookahead));
    int dst = s;
    const int S = eng.num_shards();
    if (S > 1 && (rng >> 3) % 1000 < kCrossPermille)
      dst = static_cast<int>((static_cast<std::uint64_t>(s) + 1 +
                              (rng >> 13) % (S - 1)) %
                             S);
    eng.post(s, dst, delay, [this, dst, rng] { tick(dst, rng); });
  }
};

}  // namespace

EngineStormResult run_engine_storm(const EngineStormConfig& cfg) {
  sim::ParallelEngine eng(
      sim::ParallelConfig{cfg.shards, cfg.threads, kEngineLookahead});
  EngineStorm storm{eng,
                    std::vector<EngineStorm::ShardAcc>(
                        static_cast<std::size_t>(eng.num_shards())),
                    cfg.events_per_shard};
  for (int s = 0; s < eng.num_shards(); ++s) {
    for (std::uint32_t i = 0; i < cfg.timers_per_shard; ++i) {
      const std::uint64_t rng =
          (cfg.seed + static_cast<std::uint64_t>(s) * 7919 + i) * kLcgMul +
          kLcgAdd;
      // mccl-lint: allow(lambda-escape) eng.run() below drains every tick
      eng.shard(s).schedule_at(
          static_cast<Time>(1 + i),
          [&storm, s, rng] { storm.tick(s, rng); });
    }
  }
  eng.run();
  EngineStormResult r;
  r.sim_events = eng.dispatched();
  r.work_hash = debug::kHashSeed;
  for (const auto& a : storm.acc) {
    r.work_hash = debug::mix(r.work_hash, a.hash);
    r.work_hash = debug::mix(r.work_hash, a.ticks);
  }
  r.dispatch_hash = eng.dispatch_hash();
  r.cross_posts = eng.cross_posts();
  r.epochs = eng.epochs();
  return r;
}

// --- allgather / chaos storms ---------------------------------------------

namespace {

/// Per-host driver state, owned by the host's shard (the delivery hook runs
/// there). 64-byte aligned so neighboring hosts on different shards do not
/// false-share.
struct alignas(64) RankState {
  std::uint64_t chunks_received = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t acks_sent = 0;
};

StormResult run_storm(const Topology& topo, const StormConfig& cfg,
                      const std::vector<FaultWindow>& faults) {
  MCCL_CHECK_MSG(topo.num_hosts() >= 2, "storm needs >= 2 hosts");
  MCCL_CHECK(cfg.chunk_bytes > 0 && cfg.bytes_per_rank > 0);
  const Partition part = make_partition(topo, cfg.shards);
  sim::ParallelEngine eng(sim::ParallelConfig{
      part.num_shards, cfg.threads, part.lookahead});
  ShardedFabric fab(eng, topo, part,
                    ShardedFabric::Config{cfg.switch_latency});

  const std::vector<NodeId>& hosts = topo.hosts();
  const std::size_t ranks = hosts.size();
  const int group = fab.create_group(hosts);
  const std::uint64_t chunks =
      (cfg.bytes_per_rank + cfg.chunk_bytes - 1) / cfg.chunk_bytes;

  auto ranks_state = std::make_unique<RankState[]>(ranks);
  RankState* state = ranks_state.get();
  fab.set_delivery([&fab, &topo, state, ack_stride = cfg.ack_stride](
                       NodeId host, const StormPacket& pkt, Time) {
    RankState& rs = state[topo.host_index(host)];
    if (pkt.kind == kAckKind) {
      ++rs.acks_received;
      return;
    }
    ++rs.chunks_received;
    if (ack_stride != 0 && rs.chunks_received % ack_stride == 0) {
      ++rs.acks_sent;
      StormPacket ack;
      ack.dst_host = pkt.src_host;
      ack.src_host = static_cast<std::uint32_t>(host);
      ack.kind = kAckKind;
      ack.lane = 0;
      ack.wire_size = kAckBytes;
      ack.flow = (static_cast<std::uint32_t>(host) << 12) ^ pkt.src_host ^
                 (pkt.tag << 20);
      fab.send(host, ack);
    }
  });

  // One multicast injection per (sweep, rank, chunk). Sweep 0 is the storm
  // proper; chaos configs add resend sweeps as blunt deterministic repair.
  const std::uint32_t sweeps = 1 + cfg.resend_sweeps;
  for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
    const Time base = static_cast<Time>(sweep) * cfg.resend_interval;
    for (std::size_t r = 0; r < ranks; ++r) {
      const Time start = base + static_cast<Time>(r) * kStagger;
      for (std::uint64_t c = 0; c < chunks; ++c) {
        StormPacket pkt;
        pkt.src_host = static_cast<std::uint32_t>(hosts[r]);
        pkt.group = group;
        pkt.kind = kChunkKind;
        pkt.lane = 1;
        pkt.wire_size = cfg.chunk_bytes + kHeaderBytes;
        pkt.flow = static_cast<std::uint32_t>(r * 9973 + c);
        pkt.tag = static_cast<std::uint32_t>(c) | (sweep << 24);
        fab.inject_at(hosts[r], start, pkt);
      }
    }
  }

  for (const FaultWindow& f : faults) {
    if (f.kind == FaultWindow::Kind::kLink)
      fab.add_link_down(f.a, f.b, f.down, f.up);
    else
      fab.add_node_down(f.a, f.down, f.up);
  }

  eng.run();

  StormResult res;
  res.sim_events = eng.dispatched();
  res.data_hash = fab.data_hash();
  res.dispatch_hash = eng.dispatch_hash();
  const ShardedFabric::Traffic t = fab.traffic();
  res.packets = t.packets;
  res.bytes = t.bytes;
  res.drops = t.drops;
  res.delivered = t.delivered;
  res.cross_posts = eng.cross_posts();
  res.epochs = eng.epochs();
  res.finish = fab.max_arrival();
  res.shards = eng.num_shards();
  res.threads = eng.num_threads();
  res.complete = true;
  const std::uint64_t expect = (ranks - 1) * chunks * sweeps;
  for (std::size_t r = 0; r < ranks; ++r)
    if (state[r].chunks_received < std::min<std::uint64_t>(expect, 1))
      res.complete = false;
  if (faults.empty() && cfg.resend_sweeps == 0) {
    for (std::size_t r = 0; r < ranks; ++r)
      if (state[r].chunks_received != expect) res.complete = false;
  }
  return res;
}

}  // namespace

StormResult run_allgather_storm(const Topology& topo, const StormConfig& cfg) {
  return run_storm(topo, cfg, {});
}

StormResult run_chaos_storm(const Topology& topo, const StormConfig& cfg,
                            const std::vector<FaultWindow>& faults) {
  return run_storm(topo, cfg, faults);
}

}  // namespace mccl::fabric
