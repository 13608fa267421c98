// ShardedFabric: the wire-level datapath for the sharded parallel engine.
//
// The full Fabric (fabric.hpp) models virtual-lane arbitration, pooled
// refcounted packets, the fault plane, weighted ECMP and telemetry — all of
// it hanging off one shared engine and shared mutable tables, which is what
// makes it single-threaded. ShardedFabric is the scale path: a lean,
// value-type packet datapath (serializers, propagation, deterministic ECMP,
// BFS multicast trees, link/node fault windows) whose every piece of
// mutable state has exactly one owning shard:
//
//  * link-direction state (serializer free_at, traffic counters, down
//    windows) is owned by the shard of the direction's `from` node — only
//    send_out(), which runs on that shard, touches it;
//  * node state (arrival digests, delivery counts, down windows, ingress
//    drops) is owned by the node's shard — only arrive()/inject, which run
//    there, touch it;
//  * topology, partition, multicast trees and the delivery hook are frozen
//    at setup and read-only during the run.
//
// No locks anywhere: thread safety is by ownership, and the ParallelEngine
// epoch barrier is the only synchronization. Crossing a shard boundary
// always rides a wire hop (delay >= link latency >= lookahead), which is
// precisely the conservative-parallelism contract.
//
// Determinism: all routing is the deterministic ECMP flow hash (identical
// to Fabric's), serializer booking order is the shard-local dispatch order,
// and the per-host arrival digest folds same-timestamp arrivals
// commutatively — so `data_hash()` is byte-identical across thread counts
// for a fixed partition.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.hpp"
#include "src/debug/validate.hpp"
#include "src/fabric/partition.hpp"
#include "src/fabric/topology.hpp"
#include "src/sim/parallel.hpp"

namespace mccl::fabric {

/// Value-type packet: small enough that the whole forwarding closure stays
/// inside InlineCallback's inline capture budget — no allocation per hop.
struct StormPacket {
  std::uint32_t dst_host = 0;  // unicast destination (ignored for mcast)
  std::uint32_t src_host = 0;
  std::int32_t group = -1;     // >= 0: multicast group id
  std::uint16_t kind = 0;      // driver-defined discriminator
  std::uint16_t lane = 1;      // 0 = ctrl, 1 = bulk (accounting only)
  std::uint32_t wire_size = 0;
  std::uint32_t flow = 0;      // ECMP flow id
  std::uint32_t tag = 0;       // driver payload (chunk index, sweep, ...)
  bool is_mcast() const { return group >= 0; }
};

class ShardedFabric {
 public:
  struct Config {
    Time switch_latency = 150 * kNanosecond;
  };

  /// Per-host arrival callback; runs on the host's shard thread and must
  /// only touch state owned by that host (per-host driver arrays are fine).
  using Delivery =
      std::function<void(NodeId host, const StormPacket&, Time now)>;

  ShardedFabric(sim::ParallelEngine& engine, const Topology& topo,
                const Partition& part, Config cfg);

  // --- Setup (before run; single-threaded) --------------------------------
  void set_delivery(Delivery fn) { delivery_ = std::move(fn); }
  /// Builds the multicast tree over `members` (all hosts) with
  /// Topology::mcast_tree_ports, as the full-stack fabric does. Returns the
  /// group id. `rail` >= 0 pins the tree to one rail plane's switches.
  int create_group(const std::vector<NodeId>& members, int rail = -1);
  /// Takes both directions of the a<->b link down over [down, up).
  void add_link_down(NodeId a, NodeId b, Time down, Time up);
  /// Crashes `node` over [down, up): everything arriving at or injected
  /// from it in the window is dropped.
  void add_node_down(NodeId node, Time down, Time up);
  /// Schedules a host injection at absolute time `when`.
  void inject_at(NodeId host, Time when, StormPacket pkt);

  // --- Datapath (during run; called from shard context) -------------------
  /// Sends from `host` now; callable from a Delivery hook on that host.
  void send(NodeId host, const StormPacket& pkt) { host_send(host, pkt); }

  // --- Post-run (quiescent) accessors -------------------------------------
  struct Traffic {
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;      // wire departures
    std::uint64_t drops = 0;        // dead-dir + dead-node + dead-inject
    std::uint64_t delivered = 0;    // host arrivals
    std::uint64_t ctrl_delivered = 0;
  };
  Traffic traffic() const;
  /// Partition-invariant arrival digest: per-host digests (commutative
  /// within one timestamp) merged in host order. The storm determinism
  /// oracle — byte-identical across thread counts.
  std::uint64_t data_hash() const;
  std::uint64_t delivered(NodeId host) const;
  Time last_arrival(NodeId host) const;
  Time max_arrival() const;

  sim::ParallelEngine& engine() { return engine_; }
  const Partition& partition() const { return part_; }
  int shard_of(NodeId n) const { return part_.shard_of(n); }

 private:
  struct DirState {
    Time free_at = 0;  // egress serializer
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    int down = 0;  // active down-window count
  };
  struct NodeState {
    int down = 0;
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
    std::uint64_t ctrl_delivered = 0;
    Time last_arrival = 0;
    // Arrival digest: same-timestamp arrivals fold commutatively (XOR of
    // smeared keys), windows close in time order — invariant under the
    // intra-timestamp permutations different partitions can produce.
    Time digest_t = -1;
    std::uint64_t digest_window = 0;
    std::uint64_t digest_run = debug::kHashSeed;
  };
  struct McastGroup {
    std::vector<std::vector<int>> tree_ports;  // node -> tree ports
  };

  void host_send(NodeId host, const StormPacket& pkt);
  void send_out(NodeId node, int port_idx, const StormPacket& pkt);
  void arrive(NodeId node, int in_port, const StormPacket& pkt);
  void forward(NodeId node, int in_port, const StormPacket& pkt);
  int pick_next_hop(NodeId node, const StormPacket& pkt) const;
  void fold_arrival(NodeState& st, Time t, const StormPacket& pkt);

  sim::ParallelEngine& engine_;
  const Topology& topo_;
  const Partition part_;
  Config cfg_;
  std::vector<DirState> dirs_;    // mccl: shard-owned owner = shard of dir.from
  std::vector<NodeState> nodes_;  // mccl: shard-owned owner = shard of node
  std::vector<McastGroup> groups_;  // frozen after setup
  Delivery delivery_;               // frozen after setup
};

}  // namespace mccl::fabric
