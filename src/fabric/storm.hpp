// Storm drivers for the sharded parallel engine.
//
// Three canonical timelines, shared by tests, benches and CI gates:
//
//  * engine_storm — a pure ParallelEngine timer storm (no fabric): LCG
//    self-rescheduling timers with a fixed fraction (15%) of cross-shard
//    posts. The cheapest determinism oracle for the epoch/barrier machinery
//    itself.
//  * allgather_storm — every rank multicasts its block (chunked) on one
//    group spanning all hosts, receivers ack every Nth delivered chunk back
//    to the source over unicast ECMP. The scale workload: a k=16 fat tree
//    runs 1024 ranks through the wire-level datapath.
//  * chaos_storm — allgather_storm plus link/node fault windows and
//    periodic re-multicast sweeps, for determinism under faults (including
//    crash+recover windows straddling shard boundaries).
//
// Every result carries `sim_events` and a `data_hash`/`dispatch_hash` that
// must be byte-identical across thread counts — the CI thread-scaling gate
// compares exactly these fields.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/units.hpp"
#include "src/fabric/sharded_fabric.hpp"
#include "src/fabric/topology.hpp"
#include "src/sim/parallel.hpp"

namespace mccl::fabric {

// --- engine_storm ----------------------------------------------------------

struct EngineStormConfig {
  int shards = 4;
  int threads = 1;
  std::uint32_t timers_per_shard = 256;
  std::uint64_t events_per_shard = 250000;
  std::uint64_t seed = 1;
};

struct EngineStormResult {
  std::uint64_t sim_events = 0;
  /// Always-on work digest (per-shard accumulators merged in shard order);
  /// byte-identical across thread counts.
  std::uint64_t work_hash = 0;
  /// Merged engine stream digest (constant unless MCCL_VALIDATE).
  std::uint64_t dispatch_hash = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t epochs = 0;
};

EngineStormResult run_engine_storm(const EngineStormConfig& cfg);

// --- allgather / chaos storms ---------------------------------------------

struct StormConfig {
  int shards = 1;
  int threads = 1;
  std::uint64_t bytes_per_rank = 64 * 1024;
  std::uint32_t chunk_bytes = 8192;
  /// Receivers ack every Nth delivered chunk to its source (0 = no acks).
  std::uint32_t ack_stride = 8;
  Time switch_latency = 150 * kNanosecond;
  /// chaos_storm only: each rank re-multicasts its whole block this many
  /// extra times, `resend_interval` apart — blunt, deterministic repair.
  std::uint32_t resend_sweeps = 0;
  Time resend_interval = 100 * kMicrosecond;
};

struct FaultWindow {
  enum class Kind { kLink, kNode };
  Kind kind = Kind::kLink;
  NodeId a = 0;  // link endpoint / crashed node
  NodeId b = 0;  // link peer (kLink only)
  Time down = 0;
  Time up = 0;
};

struct StormResult {
  std::uint64_t sim_events = 0;
  std::uint64_t data_hash = 0;      // always-on arrival digest
  std::uint64_t dispatch_hash = 0;  // merged engine digest (validate builds)
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t epochs = 0;
  Time finish = 0;  // latest host arrival
  int shards = 1;
  int threads = 1;
  /// Clean storms: every rank received (ranks-1) * chunks block chunks.
  bool complete = false;
};

/// Multicast allgather over all hosts of `topo` (requires routes).
StormResult run_allgather_storm(const Topology& topo, const StormConfig& cfg);

/// Allgather storm with fault windows and resend sweeps.
StormResult run_chaos_storm(const Topology& topo, const StormConfig& cfg,
                            const std::vector<FaultWindow>& faults);

}  // namespace mccl::fabric
