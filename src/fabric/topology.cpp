#include "src/fabric/topology.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "src/common/check.hpp"

namespace mccl::fabric {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max();
}  // namespace

NodeId Topology::add_node(NodeKind kind) {
  const NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  ports_.emplace_back();
  host_index_.push_back(kNoHost);
  rail_of_.push_back(-1);
  if (kind == NodeKind::kHost) {
    host_index_.back() = hosts_.size();
    hosts_.push_back(id);
  }
  routes_ready_ = false;
  return id;
}

NodeId Topology::add_host() { return add_node(NodeKind::kHost); }
NodeId Topology::add_switch() { return add_node(NodeKind::kSwitch); }

void Topology::connect(NodeId a, NodeId b, LinkParams params) {
  MCCL_CHECK(a != b);
  MCCL_CHECK(static_cast<size_t>(a) < num_nodes());
  MCCL_CHECK(static_cast<size_t>(b) < num_nodes());
  auto& pa = ports_[static_cast<size_t>(a)];
  auto& pb = ports_[static_cast<size_t>(b)];
  const int port_a = static_cast<int>(pa.size());
  const int port_b = static_cast<int>(pb.size());

  Port ap;
  ap.peer = b;
  ap.peer_port = port_b;
  ap.dir_index = dirs_.size();
  ap.params = params;
  dirs_.push_back(LinkDir{a, b, port_a, params});
  pa.push_back(ap);

  Port bp;
  bp.peer = a;
  bp.peer_port = port_a;
  bp.dir_index = dirs_.size();
  bp.params = params;
  dirs_.push_back(LinkDir{b, a, port_b, params});
  pb.push_back(bp);

  routes_ready_ = false;
}

void Topology::compute_routes() {
  const std::size_t n = num_nodes();
  const std::size_t h = num_hosts();
  dist_.assign(h * n, kUnreachable);
  hops_flat_.clear();
  hops_off_.assign(h * n + 1, 0);

  // BFS from each host over the undirected graph. Rows are built in
  // ascending (hi * n + node) order, so the CSR offsets fill in one pass.
  for (std::size_t hi = 0; hi < h; ++hi) {
    int* dist = &dist_[hi * n];
    std::deque<NodeId> frontier;
    dist[hosts_[hi]] = 0;
    frontier.push_back(hosts_[hi]);
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const Port& p : ports_[static_cast<size_t>(cur)]) {
        if (dist[p.peer] == kUnreachable) {
          dist[p.peer] = dist[cur] + 1;
          frontier.push_back(p.peer);
        }
      }
    }
    // Candidate next hops: ports whose peer is strictly closer to the host.
    for (std::size_t node = 0; node < n; ++node) {
      if (dist[node] != kUnreachable && dist[node] != 0) {
        const auto& nports = ports_[node];
        for (std::size_t pi = 0; pi < nports.size(); ++pi) {
          if (dist[nports[pi].peer] == dist[node] - 1)
            hops_flat_.push_back(static_cast<int>(pi));
        }
        MCCL_CHECK(hops_flat_.size() > hops_off_[hi * n + node]);
      }
      hops_off_[hi * n + node + 1] =
          static_cast<std::uint32_t>(hops_flat_.size());
    }
  }
  routes_ready_ = true;
}

int Topology::distance(NodeId node, NodeId dst_host) const {
  MCCL_CHECK_MSG(routes_ready_, "compute_routes() not called");
  const std::size_t hi = host_index(dst_host);
  const int d = dist_[hi * num_nodes() + static_cast<size_t>(node)];
  MCCL_CHECK_MSG(d != kUnreachable, "host unreachable");
  return d;
}

std::vector<int> Topology::bfs_parent_ports(NodeId root, int rail) const {
  std::vector<int> parent_port(num_nodes(), -1);
  std::vector<bool> visited(num_nodes(), false);
  std::deque<NodeId> frontier;
  visited[static_cast<size_t>(root)] = true;
  frontier.push_back(root);
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (const Port& p : ports(cur)) {
      if (visited[static_cast<size_t>(p.peer)] || !on_rail(p.peer, rail))
        continue;
      visited[static_cast<size_t>(p.peer)] = true;
      parent_port[static_cast<size_t>(p.peer)] = p.peer_port;
      frontier.push_back(p.peer);
    }
  }
  return parent_port;
}

std::vector<std::vector<int>> Topology::mcast_tree_ports(
    const std::vector<NodeId>& members, int rail) const {
  MCCL_CHECK_MSG(members.size() >= 2, "mcast group needs >= 2 members");
  // Root selection: the node minimizing the maximum distance to any member
  // (prefer switches). This mirrors the subnet manager placing the mcast
  // tree root near the topological center.
  NodeId root = members.front();
  int best = std::numeric_limits<int>::max();
  for (std::size_t n = 0; n < num_nodes(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (!on_rail(node, rail)) continue;
    if (is_host(node) &&
        std::find(members.begin(), members.end(), node) == members.end())
      continue;  // a non-member host cannot relay traffic
    int worst = 0;
    for (NodeId m : members)
      worst = std::max(worst, node == m ? 0 : distance(node, m));
    if (worst < best ||
        (worst == best && !is_host(node) && is_host(root))) {
      best = worst;
      root = node;
    }
  }

  // Keep only the BFS edges on some member's path to the root, stored as
  // (node, port) on both endpoints; forwarding floods a packet to every
  // tree port except its ingress.
  const std::vector<int> parent_port = bfs_parent_ports(root, rail);
  std::vector<std::vector<int>> tree(num_nodes());
  auto add_edge = [&](NodeId node, int port) {
    auto& tp = tree[static_cast<size_t>(node)];
    if (std::find(tp.begin(), tp.end(), port) == tp.end()) tp.push_back(port);
  };
  for (NodeId member : members) {
    MCCL_CHECK_MSG(
        member == root || parent_port[static_cast<size_t>(member)] >= 0,
        "mcast member unreachable from tree root");
    NodeId cur = member;
    while (cur != root) {
      const int port = parent_port[static_cast<size_t>(cur)];
      const Port& p = ports(cur)[static_cast<size_t>(port)];
      add_edge(cur, port);
      add_edge(p.peer, p.peer_port);
      cur = p.peer;
    }
  }
  return tree;
}

Topology make_back_to_back(LinkParams params) {
  Topology t;
  const NodeId a = t.add_host();
  const NodeId b = t.add_host();
  t.connect(a, b, params);
  t.compute_routes();
  return t;
}

Topology make_star(std::size_t hosts, LinkParams params) {
  MCCL_CHECK(hosts >= 1);
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) hs.push_back(t.add_host());
  const NodeId sw = t.add_switch();
  for (const NodeId h : hs) t.connect(h, sw, params);
  t.compute_routes();
  return t;
}

Topology make_fat_tree(std::size_t leaves, std::size_t hosts_per_leaf,
                       std::size_t spines, std::size_t trunks,
                       LinkParams host_link, LinkParams trunk_link) {
  MCCL_CHECK(leaves >= 1 && hosts_per_leaf >= 1 && spines >= 1 && trunks >= 1);
  Topology t;
  // Hosts first so host node ids are 0..H-1.
  std::vector<NodeId> hs;
  hs.reserve(leaves * hosts_per_leaf);
  for (std::size_t i = 0; i < leaves * hosts_per_leaf; ++i)
    hs.push_back(t.add_host());
  std::vector<NodeId> leaf_sw(leaves), spine_sw(spines);
  for (auto& s : leaf_sw) s = t.add_switch();
  for (auto& s : spine_sw) s = t.add_switch();
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t i = 0; i < hosts_per_leaf; ++i)
      t.connect(hs[l * hosts_per_leaf + i], leaf_sw[l], host_link);
    for (std::size_t s = 0; s < spines; ++s)
      for (std::size_t k = 0; k < trunks; ++k)
        t.connect(leaf_sw[l], spine_sw[s], trunk_link);
  }
  t.compute_routes();
  return t;
}

Topology make_multi_rail_fat_tree(std::size_t rails, std::size_t leaves,
                                  std::size_t hosts_per_leaf,
                                  std::size_t spines, std::size_t trunks,
                                  LinkParams host_link, LinkParams trunk_link) {
  MCCL_CHECK(rails >= 1 && leaves >= 1 && hosts_per_leaf >= 1 && spines >= 1 &&
             trunks >= 1);
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(leaves * hosts_per_leaf);
  for (std::size_t i = 0; i < leaves * hosts_per_leaf; ++i)
    hs.push_back(t.add_host());
  // One leaf/spine plane per rail; host port r goes to rail r's leaf, so
  // rails are iterated outermost to keep port indices aligned with rails.
  for (std::size_t r = 0; r < rails; ++r) {
    std::vector<NodeId> leaf_sw(leaves), spine_sw(spines);
    for (auto& s : leaf_sw) {
      s = t.add_switch();
      t.tag_rail(s, static_cast<int>(r));
    }
    for (auto& s : spine_sw) {
      s = t.add_switch();
      t.tag_rail(s, static_cast<int>(r));
    }
    for (std::size_t l = 0; l < leaves; ++l) {
      for (std::size_t i = 0; i < hosts_per_leaf; ++i)
        t.connect(hs[l * hosts_per_leaf + i], leaf_sw[l], host_link);
      for (std::size_t s = 0; s < spines; ++s)
        for (std::size_t k = 0; k < trunks; ++k)
          t.connect(leaf_sw[l], spine_sw[s], trunk_link);
    }
  }
  t.compute_routes();
  return t;
}

namespace {

/// Builds one k-ary switch plane (edge/agg/core) over `hs` and tags every
/// switch with `rail` when >= 0. Shared by the single- and multi-rail
/// three-level builders.
void build_fat_tree3_plane(Topology& t, const std::vector<NodeId>& hs,
                           std::size_t k, std::size_t hosts_per_edge,
                           const FatTree3Params& p, int rail) {
  const std::size_t half = k / 2;
  const std::size_t pods = k;
  std::vector<NodeId> edge(pods * half), agg(pods * half), core(half * half);
  for (auto& s : edge) {
    s = t.add_switch();
    if (rail >= 0) t.tag_rail(s, rail);
  }
  for (auto& s : agg) {
    s = t.add_switch();
    if (rail >= 0) t.tag_rail(s, rail);
  }
  for (auto& s : core) {
    s = t.add_switch();
    if (rail >= 0) t.tag_rail(s, rail);
  }
  for (std::size_t pod = 0; pod < pods; ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      const NodeId esw = edge[pod * half + e];
      for (std::size_t h = 0; h < hosts_per_edge; ++h)
        t.connect(hs[(pod * half + e) * hosts_per_edge + h], esw, p.host_link);
      for (std::size_t a = 0; a < half; ++a)
        t.connect(esw, agg[pod * half + a], p.fabric_link);
    }
    // Agg switch a of every pod connects to core group a (k/2 cores).
    for (std::size_t a = 0; a < half; ++a)
      for (std::size_t c = 0; c < half; ++c)
        t.connect(agg[pod * half + a], core[a * half + c], p.fabric_link);
  }
}

}  // namespace

Topology make_fat_tree(std::size_t k, FatTree3Params p) {
  MCCL_CHECK_MSG(k >= 2 && k % 2 == 0, "k-ary fat tree needs even k >= 2");
  const std::size_t half = k / 2;
  const std::size_t hosts_per_edge = p.hosts_per_edge == 0 ? half
                                                           : p.hosts_per_edge;
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(k * half * hosts_per_edge);
  for (std::size_t i = 0; i < k * half * hosts_per_edge; ++i)
    hs.push_back(t.add_host());
  build_fat_tree3_plane(t, hs, k, hosts_per_edge, p, /*rail=*/-1);
  if (p.compute_routes) t.compute_routes();
  return t;
}

Topology make_multi_rail_fat_tree(std::size_t rails, std::size_t k,
                                  FatTree3Params p) {
  MCCL_CHECK(rails >= 1);
  MCCL_CHECK_MSG(k >= 2 && k % 2 == 0, "k-ary fat tree needs even k >= 2");
  const std::size_t half = k / 2;
  const std::size_t hosts_per_edge = p.hosts_per_edge == 0 ? half
                                                           : p.hosts_per_edge;
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(k * half * hosts_per_edge);
  for (std::size_t i = 0; i < k * half * hosts_per_edge; ++i)
    hs.push_back(t.add_host());
  // One full k-ary plane per rail, rails outermost so host port r lands on
  // rail r's edge switch (the rail-striping invariant consumers rely on).
  for (std::size_t r = 0; r < rails; ++r)
    build_fat_tree3_plane(t, hs, k, hosts_per_edge, p, static_cast<int>(r));
  if (p.compute_routes) t.compute_routes();
  return t;
}

Topology make_fat_tree_for_hosts(std::size_t min_hosts, std::size_t radix,
                                 LinkParams params) {
  MCCL_CHECK(radix >= 2);
  const std::size_t down = radix / 2;  // hosts per leaf
  const std::size_t up = radix - down;
  std::size_t leaves = (min_hosts + down - 1) / down;
  if (leaves == 0) leaves = 1;
  // One trunk to each of `up` spines keeps the tree non-blocking when
  // up >= down.
  return make_fat_tree(leaves, down, up, 1, params, params);
}

}  // namespace mccl::fabric
