// Unit tests for topology construction and routing.
#include <gtest/gtest.h>

#include "src/fabric/topology.hpp"

namespace mccl::fabric {
namespace {

TEST(Topology, BackToBackHasTwoHostsOneLink) {
  Topology t = make_back_to_back({});
  EXPECT_EQ(t.num_hosts(), 2u);
  EXPECT_EQ(t.num_switches(), 0u);
  EXPECT_EQ(t.num_dirs(), 2u);
  EXPECT_EQ(t.distance(0, 1), 1);
  EXPECT_EQ(t.next_hops(0, 1).size(), 1u);
}

TEST(Topology, StarRoutesThroughSwitch) {
  Topology t = make_star(4, {});
  EXPECT_EQ(t.num_hosts(), 4u);
  EXPECT_EQ(t.num_switches(), 1u);
  // host -> switch -> host: distance 2.
  EXPECT_EQ(t.distance(0, 3), 2);
  const NodeId sw = 4;
  EXPECT_FALSE(t.is_host(sw));
  EXPECT_EQ(t.next_hops(sw, 2).size(), 1u);
}

TEST(Topology, FatTreeShape) {
  // 4 leaves x 4 hosts, 2 spines, 2 trunks each: 16 hosts, 6 switches.
  Topology t = make_fat_tree(4, 4, 2, 2, {}, {});
  EXPECT_EQ(t.num_hosts(), 16u);
  EXPECT_EQ(t.num_switches(), 6u);
  // Intra-leaf: host -> leaf -> host.
  EXPECT_EQ(t.distance(0, 1), 2);
  // Inter-leaf: host -> leaf -> spine -> leaf -> host.
  EXPECT_EQ(t.distance(0, 15), 4);
}

TEST(Topology, FatTreeEcmpMultipath) {
  Topology t = make_fat_tree(2, 2, 2, 1, {}, {});
  const NodeId leaf0 = 4;  // hosts are 0..3, switches follow
  ASSERT_FALSE(t.is_host(leaf0));
  // From leaf 0 toward a host in leaf 1 there are 2 equal-cost spines.
  EXPECT_EQ(t.next_hops(leaf0, 3).size(), 2u);
  // Toward a local host there is exactly one (down) port.
  EXPECT_EQ(t.next_hops(leaf0, 0).size(), 1u);
}

TEST(Topology, FatTreeForHostsCoversRequest) {
  Topology t = make_fat_tree_for_hosts(188, 36, {});
  EXPECT_GE(t.num_hosts(), 188u);
  // radix 36 -> 18 hosts per leaf, 11 leaves, 18 spines.
  EXPECT_EQ(t.num_switches(), 29u);
}

TEST(Topology, HostIndexIsStable) {
  Topology t = make_star(5, {});
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(t.host_index(t.hosts()[i]), i);
}

TEST(Topology, DirsMatchPorts) {
  Topology t = make_star(3, {});
  // Every port owns exactly one outgoing direction.
  std::size_t total_ports = 0;
  for (std::size_t n = 0; n < t.num_nodes(); ++n)
    total_ports += t.ports(static_cast<NodeId>(n)).size();
  EXPECT_EQ(total_ports, t.num_dirs());
}

TEST(Topology, LinkParamsPreserved) {
  LinkParams lp{56.0, 700 * kNanosecond};
  Topology t = make_back_to_back(lp);
  EXPECT_DOUBLE_EQ(t.dirs()[0].params.gbps, 56.0);
  EXPECT_EQ(t.dirs()[0].params.latency, 700 * kNanosecond);
}

TEST(Topology, MultiRailFatTreeShape) {
  // make_multi_rail_fat_tree(2, 2, 4, 1, 1): 8 hosts shared by two
  // independent leaf/spine planes — rail 0 = leaves 8-9 + spine 10,
  // rail 1 = leaves 11-12 + spine 13; every host has one port per rail.
  Topology t = make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {});
  EXPECT_EQ(t.num_rails(), 2);
  EXPECT_EQ(t.num_nodes(), 8u + 2 * (2 + 1));
  for (NodeId h = 0; h < 8; ++h) {
    EXPECT_TRUE(t.is_host(h));
    EXPECT_EQ(t.rail_of(h), -1);  // hosts belong to no single rail
    const auto& ports = t.ports(h);
    ASSERT_EQ(ports.size(), 2u);
    // Port r is the uplink into rail r.
    EXPECT_EQ(t.rail_of(ports[0].peer), 0);
    EXPECT_EQ(t.rail_of(ports[1].peer), 1);
  }
  const auto nodes = static_cast<NodeId>(t.num_nodes());
  for (NodeId sw = 8; sw < nodes; ++sw) {
    EXPECT_FALSE(t.is_host(sw));
    EXPECT_EQ(t.rail_of(sw), sw < 11 ? 0 : 1);
  }
  // The planes are disjoint: no switch has a port into the other rail.
  for (NodeId sw = 8; sw < nodes; ++sw) {
    for (const Port& p : t.ports(sw)) {
      if (!t.is_host(p.peer)) {
        EXPECT_EQ(t.rail_of(p.peer), t.rail_of(sw));
      }
    }
  }
}

// --- Three-level k-ary fat tree (Al-Fares Clos) ----------------------------

TEST(Topology, FatTree3K4FullShape) {
  // k=4: 16 hosts, 4 pods x (2 edge + 2 agg) + 4 core = 20 switches.
  Topology t = make_fat_tree(4, FatTree3Params{});
  EXPECT_EQ(t.num_hosts(), 16u);
  EXPECT_EQ(t.num_nodes(), 16u + 20u);
  // Hosts are pod-major: host h lives in pod h/4 and hangs off one edge
  // switch shared with h^1's... (2 hosts per edge at k=4).
  for (NodeId h = 0; h < 16; ++h) {
    ASSERT_TRUE(t.is_host(h));
    ASSERT_EQ(t.ports(h).size(), 1u);
    EXPECT_EQ(t.ports(h).front().peer, t.ports(h ^ 1).front().peer)
        << "hosts " << h << " and " << (h ^ 1) << " share an edge switch";
  }
  // Radix: edge = k/2 hosts + k/2 aggs = k; agg = k/2 edges + k/2 cores
  // = k; core = one agg per pod = k.
  for (NodeId sw = 16; sw < static_cast<NodeId>(t.num_nodes()); ++sw)
    EXPECT_EQ(t.ports(sw).size(), 4u) << "switch " << sw;
  // Full bisection: hosts in different pods see k/2 * k/2 = 4-way ECMP at
  // the first hop... the edge switch offers k/2 agg uplinks.
  EXPECT_GE(t.next_hops(t.ports(0).front().peer, 15).size(), 2u);
  // Cross-pod distance host->host is 6 hops (edge-agg-core-agg-edge).
  EXPECT_EQ(t.distance(0, 15), 6);
  EXPECT_EQ(t.distance(0, 1), 2);   // same edge
  EXPECT_EQ(t.distance(0, 2), 4);   // same pod, different edge
}

TEST(Topology, FatTree3K16Shape) {
  // k=16: 1024 hosts, 16 pods x 16 switches + 64 core = 320 switches —
  // past the paper testbed's 188-node ceiling.
  Topology t = make_fat_tree(16, FatTree3Params{});
  EXPECT_EQ(t.num_hosts(), 1024u);
  EXPECT_EQ(t.num_nodes(), 1024u + 16u * 16u + 64u);
  for (NodeId sw = 1024; sw < static_cast<NodeId>(t.num_nodes()); ++sw)
    ASSERT_EQ(t.ports(sw).size(), 16u) << "switch " << sw;
  // Route spot checks across the full route tables.
  ASSERT_TRUE(t.routes_ready());
  EXPECT_EQ(t.distance(0, 1023), 6);
  EXPECT_EQ(t.distance(0, 7), 2);
  // Edge switch fans cross-pod flows over all k/2 = 8 agg uplinks.
  EXPECT_EQ(t.next_hops(t.ports(0).front().peer, 1023).size(), 8u);
}

TEST(Topology, FatTree3K32ShapeOnly) {
  // k=32 full population is 8192 hosts with O(hosts * nodes) routing
  // memory; shape-only construction (hosts_per_edge=1, no routes) keeps the
  // switch fabric full-size while the host tier scales down.
  FatTree3Params p;
  p.hosts_per_edge = 1;
  p.compute_routes = false;
  Topology t = make_fat_tree(32, p);
  const std::size_t hosts = 32u * 16u;  // k pods * k/2 edges * 1 host
  EXPECT_EQ(t.num_hosts(), hosts);
  EXPECT_EQ(t.num_nodes(), hosts + 32u * 32u + 256u);
  EXPECT_FALSE(t.routes_ready());
  // Radix census with the thinned host tier: 512 edges at 1 host + 16 aggs
  // = 17 ports; 512 aggs and 256 cores keep the full radix 32.
  std::size_t radix17 = 0, radix32 = 0;
  for (NodeId sw = static_cast<NodeId>(hosts);
       sw < static_cast<NodeId>(t.num_nodes()); ++sw) {
    const std::size_t r = t.ports(sw).size();
    if (r == 17)
      ++radix17;
    else if (r == 32)
      ++radix32;
    else
      ADD_FAILURE() << "switch " << sw << " has radix " << r;
  }
  EXPECT_EQ(radix17, 512u);
  EXPECT_EQ(radix32, 512u + 256u);
}

TEST(Topology, MultiRailFatTree3Shape) {
  // Two independent k=4 planes over one host set; host port r = rail r.
  FatTree3Params p;
  p.hosts_per_edge = 2;
  Topology t = make_multi_rail_fat_tree(2, 4, p);
  EXPECT_EQ(t.num_rails(), 2);
  EXPECT_EQ(t.num_hosts(), 16u);
  EXPECT_EQ(t.num_nodes(), 16u + 2u * 20u);
  for (NodeId h = 0; h < 16; ++h) {
    const auto& ports = t.ports(h);
    ASSERT_EQ(ports.size(), 2u);
    EXPECT_EQ(t.rail_of(ports[0].peer), 0);
    EXPECT_EQ(t.rail_of(ports[1].peer), 1);
  }
  // Planes are disjoint switch sets.
  for (NodeId sw = 16; sw < static_cast<NodeId>(t.num_nodes()); ++sw) {
    for (const Port& port : t.ports(sw)) {
      if (!t.is_host(port.peer)) {
        EXPECT_EQ(t.rail_of(port.peer), t.rail_of(sw));
      }
    }
  }
  ASSERT_TRUE(t.routes_ready());
  EXPECT_EQ(t.distance(0, 15), 6);
}

}  // namespace
}  // namespace mccl::fabric
