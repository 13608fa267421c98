#include "src/fabric/sharded_fabric.hpp"

#include <algorithm>

#include "src/common/check.hpp"

namespace mccl::fabric {

// mccl: quiescent ctor runs before the engine starts
ShardedFabric::ShardedFabric(sim::ParallelEngine& engine, const Topology& topo,
                             const Partition& part, Config cfg)
    : engine_(engine), topo_(topo), part_(part), cfg_(cfg) {
  MCCL_CHECK_MSG(part_.shard_of_node.size() == topo_.num_nodes(),
                 "partition does not match topology");
  MCCL_CHECK_MSG(part_.num_shards == engine_.num_shards(),
                 "partition shard count does not match engine");
  dirs_.resize(topo_.num_dirs());
  nodes_.resize(topo_.num_nodes());
}

int ShardedFabric::create_group(const std::vector<NodeId>& members,
                                int rail) {
  groups_.push_back({topo_.mcast_tree_ports(members, rail)});
  return static_cast<int>(groups_.size()) - 1;
}

// mccl: shard-context the window toggles run on each direction's owner core
void ShardedFabric::add_link_down(NodeId a, NodeId b, Time down, Time up) {
  MCCL_CHECK(down >= 0 && up > down);
  const auto& ports = topo_.ports(a);
  bool found = false;
  for (const Port& p : ports) {
    if (p.peer != b) continue;
    found = true;
    for (const std::size_t d : {p.dir_index,
                                topo_.ports(b)[static_cast<std::size_t>(
                                                   p.peer_port)]
                                    .dir_index}) {
      // Each direction's window toggles on its owner shard's clock.
      sim::ShardCore& core =
          engine_.shard(part_.shard_of(topo_.dirs()[d].from));
      core.schedule_at(down, [this, d] { ++dirs_[d].down; });
      core.schedule_at(up, [this, d] { --dirs_[d].down; });
    }
  }
  MCCL_CHECK_MSG(found, "add_link_down: nodes not connected");
}

// mccl: shard-context the window toggles run on the node's owner core
void ShardedFabric::add_node_down(NodeId node, Time down, Time up) {
  MCCL_CHECK(down >= 0 && up > down);
  sim::ShardCore& core = engine_.shard(part_.shard_of(node));
  core.schedule_at(down, [this, node] {
    ++nodes_[static_cast<std::size_t>(node)].down;
  });
  core.schedule_at(up, [this, node] {
    --nodes_[static_cast<std::size_t>(node)].down;
  });
}

void ShardedFabric::inject_at(NodeId host, Time when, StormPacket pkt) {
  MCCL_CHECK(topo_.is_host(host));
  engine_.shard(part_.shard_of(host))
      .schedule_at(when, [this, host, pkt] { host_send(host, pkt); });
}

// mccl: shard-context scheduled on the shard owning `host`
void ShardedFabric::host_send(NodeId host, const StormPacket& pkt) {
  NodeState& st = nodes_[static_cast<std::size_t>(host)];
  if (st.down > 0) {  // crashed host: the injection evaporates
    ++st.drops;
    return;
  }
  int out;
  if (pkt.is_mcast()) {
    const auto& tree =
        groups_[static_cast<std::size_t>(pkt.group)]
            .tree_ports[static_cast<std::size_t>(host)];
    MCCL_CHECK_MSG(!tree.empty(), "mcast sender not on the group tree");
    out = tree.front();
  } else {
    out = pick_next_hop(host, pkt);
  }
  send_out(host, out, pkt);
}

int ShardedFabric::pick_next_hop(NodeId node, const StormPacket& pkt) const {
  const Topology::HopSet cand = topo_.next_hops(node, pkt.dst_host);
  if (cand.size() == 1) return cand.front();
  return cand.by_hash(ecmp_hash(pkt.flow, node, pkt.dst_host));
}

// mccl-lint: begin-hot sharded-wire
// mccl: shard-context every caller runs on the shard owning `node`
void ShardedFabric::send_out(NodeId node, int port_idx,
                             const StormPacket& pkt) {
  const Port& port = topo_.ports(node)[static_cast<std::size_t>(port_idx)];
  DirState& dir = dirs_[port.dir_index];
  if (dir.down > 0) {  // dead egress: drop at the wire, owner-counted
    ++dir.drops;
    return;
  }
  sim::ShardCore& core = engine_.shard(part_.shard_of(node));
  const Time now = core.now();
  const Time depart =
      std::max(now, dir.free_at) +
      serialization_time(pkt.wire_size, port.params.gbps);
  dir.free_at = depart;
  dir.bytes += pkt.wire_size;
  ++dir.packets;
  const Time delay = (depart - now) + port.params.latency;
  const NodeId peer = port.peer;
  const int in_port = port.peer_port;
  // delay >= link latency >= partition lookahead: the conservative-
  // parallelism contract the ParallelEngine validates on cross-shard posts.
  engine_.post(part_.shard_of(node), part_.shard_of(peer), delay,
               [this, peer, in_port, pkt] { arrive(peer, in_port, pkt); });
}

void ShardedFabric::fold_arrival(NodeState& st, Time t,
                                 const StormPacket& pkt) {
  if (t != st.digest_t) {
    st.digest_run = debug::mix(
        st.digest_run, static_cast<std::uint64_t>(st.digest_t) ^
                           st.digest_window);
    st.digest_window = 0;
    st.digest_t = t;
  }
  // XOR within one timestamp: commutative, so equal-time arrival order —
  // the one thing different partitions may permute — cannot leak in.
  std::uint64_t key = debug::kHashSeed;
  key = debug::mix(key, (static_cast<std::uint64_t>(pkt.src_host) << 32) |
                            pkt.wire_size);
  key = debug::mix(key, (static_cast<std::uint64_t>(pkt.kind) << 48) |
                            (static_cast<std::uint64_t>(pkt.tag) << 16) |
                            pkt.lane);
  key = debug::mix(key, pkt.flow);
  st.digest_window ^= key;
}

// mccl: shard-context the cross-shard post lands on the shard owning `node`
void ShardedFabric::arrive(NodeId node, int in_port, const StormPacket& pkt) {
  NodeState& st = nodes_[static_cast<std::size_t>(node)];
  if (st.down > 0) {  // crashed node eats the packet
    ++st.drops;
    return;
  }
  if (topo_.is_host(node)) {
    sim::ShardCore& core = engine_.shard(part_.shard_of(node));
    const Time now = core.now();
    ++st.delivered;
    if (pkt.lane == kCtrlLane) ++st.ctrl_delivered;
    st.last_arrival = now;
    fold_arrival(st, now, pkt);
    if (delivery_) delivery_(node, pkt, now);
    return;
  }
  engine_.shard(part_.shard_of(node))
      .schedule(cfg_.switch_latency,
                [this, node, in_port, pkt] { forward(node, in_port, pkt); });
}

void ShardedFabric::forward(NodeId node, int in_port, const StormPacket& pkt) {
  if (pkt.is_mcast()) {
    const auto& tree =
        groups_[static_cast<std::size_t>(pkt.group)]
            .tree_ports[static_cast<std::size_t>(node)];
    for (const int p : tree)
      if (p != in_port) send_out(node, p, pkt);
    return;
  }
  send_out(node, pick_next_hop(node, pkt), pkt);
}
// mccl-lint: end-hot

// mccl: quiescent post-run accessor; workers have joined
ShardedFabric::Traffic ShardedFabric::traffic() const {
  Traffic t;
  for (const DirState& d : dirs_) {
    t.bytes += d.bytes;
    t.packets += d.packets;
    t.drops += d.drops;
  }
  for (const NodeState& n : nodes_) {
    t.drops += n.drops;
    t.delivered += n.delivered;
    t.ctrl_delivered += n.ctrl_delivered;
  }
  return t;
}

// mccl: quiescent post-run accessor; workers have joined
std::uint64_t ShardedFabric::data_hash() const {
  std::uint64_t h = debug::kHashSeed;
  for (const NodeId host : topo_.hosts()) {
    const NodeState& st = nodes_[static_cast<std::size_t>(host)];
    // Close the trailing same-timestamp window, then fold in host order.
    std::uint64_t d = debug::mix(
        st.digest_run,
        static_cast<std::uint64_t>(st.digest_t) ^ st.digest_window);
    d = debug::mix(d, st.delivered);
    h = debug::mix(h, d);
  }
  return h;
}

// mccl: quiescent post-run accessor; workers have joined
std::uint64_t ShardedFabric::delivered(NodeId host) const {
  return nodes_[static_cast<std::size_t>(host)].delivered;
}

// mccl: quiescent post-run accessor; workers have joined
Time ShardedFabric::last_arrival(NodeId host) const {
  return nodes_[static_cast<std::size_t>(host)].last_arrival;
}

// mccl: quiescent post-run accessor; workers have joined
Time ShardedFabric::max_arrival() const {
  Time t = 0;
  for (const NodeId host : topo_.hosts())
    t = std::max(t, nodes_[static_cast<std::size_t>(host)].last_arrival);
  return t;
}

}  // namespace mccl::fabric
