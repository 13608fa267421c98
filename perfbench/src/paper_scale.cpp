// paper_scale: the Fig 11 / Fig 12 ops at 96 ranks of the paper's testbed.
//
// One round = a fresh 96-rank cluster on the UCC testbed fat tree
// (synthetic payload, default CommConfig: the failure detector runs), one
// untimed warm-up op, then one cycle of three timed ops: multicast Bcast
// 4 MiB from a seeded rotating root, multicast Allgather 64 KiB/rank and
// ring Allgather 64 KiB/rank. No payload bytes move, so the host cost is
// the simulator's control plane: detector heartbeats over the RC mesh,
// switch replication, NIC/RC ack traffic.
#include "perfbench/src/harness.hpp"

namespace perfbench {

using namespace mccl;

namespace {

struct OpSpec {
  const char* kind;
  bool bcast;
  coll::AllgatherAlgo ag;
};

constexpr OpSpec kCycle[] = {
    {"mcast_bcast", true, coll::AllgatherAlgo::kMcast},
    {"mcast_ag", false, coll::AllgatherAlgo::kMcast},
    {"ring_ag", false, coll::AllgatherAlgo::kRing},
};

}  // namespace

void run_paper_scale(const Args& args, Report& report) {
  // 96 of the testbed's 188 hosts: at 188 ranks one round takes about 15 s
  // of host time in a 740 MiB working set, so a run holds two rounds and
  // its host metrics follow whatever else shares the memory system. At 96
  // ranks a round takes about 1.5 s in 200 MiB and a run holds a dozen.
  const std::size_t ranks = args.smoke ? 16 : 96;
  const std::uint64_t bcast_bytes = args.smoke ? 256 * KiB : 4 * MiB;
  const std::uint64_t ag_bytes = args.smoke ? 16 * KiB : 64 * KiB;
  const std::uint64_t warmup_bytes = 4 * KiB;
  // Seeded inputs: fabric and detector RNG streams, the first Bcast root.
  const std::uint64_t fabric_seed = derive(args.seed, 1);
  const std::uint64_t detector_seed = derive(args.seed, 2);
  const std::size_t root = derive(args.seed, 3) % ranks;

  LayerProbe probe;
  std::vector<double> ctor_s, comm_s, warm_s;
  std::vector<double> host_ms[3];

  const RoundFn round = [&](std::size_t index, LayerProbe* pr) {
    RoundResult out;
    coll::ClusterConfig kcfg = ucc_testbed_cluster();
    kcfg.fabric.seed = fabric_seed;
    if (pr != nullptr) LayerProbe::configure(kcfg);
    coll::CommConfig ccfg;  // the default config, detector on
    ccfg.detector.seed = detector_seed;

    if (!rss_reset()) report.fail("cannot reset the peak-RSS window");
    Stopwatch setup;
    coll::Cluster cluster(ucc_testbed_topology(), kcfg);
    const double t_cluster = setup.seconds();
    std::vector<fabric::NodeId> hosts;
    for (std::size_t h = 0; h < ranks; ++h)
      hosts.push_back(static_cast<fabric::NodeId>(h));
    coll::Communicator comm(cluster, hosts, ccfg);
    const double t_comm = setup.seconds();
    // Warm-up: long enough for heartbeats to open the lazy RC control mesh.
    check_op(args, report,
             comm.allgather(warmup_bytes, coll::AllgatherAlgo::kMcast),
             "paper_scale warm-up allgather", false);
    out.setup_s = setup.seconds();
    ctor_s.push_back(t_cluster);
    comm_s.push_back(t_comm - t_cluster);
    warm_s.push_back(out.setup_s - t_comm);

    if (pr != nullptr) pr->attach(cluster);
    std::uint64_t digest = 0;
    std::vector<double> op_us;
    double payload = 0, makespan_us = 0, mcast_ag_mib = 0, ring_mib = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      const OpSpec& op = kCycle[i];
      const std::uint64_t sw0 = cluster.fabric().traffic().switch_port_bytes;
      Stopwatch sw;
      const coll::OpResult res =
          op.bcast ? comm.broadcast(root, bcast_bytes, coll::BcastAlgo::kMcast)
                   : comm.allgather(ag_bytes, op.ag);
      const double host = sw.seconds();
      const std::uint64_t sw_bytes =
          cluster.fabric().traffic().switch_port_bytes - sw0;
      out.attempts += 1;
      out.ok_attempts += check_op(args, report, res,
                                  std::string("paper_scale ") + op.kind,
                                  index == 0 && i == 0);
      out.ops += 1;
      out.op_host_s += host;
      host_ms[i].push_back(host * 1e3);
      out.fp.op_durations.push_back(res.duration());
      digest = digest * 1000003 + sw_bytes;

      const std::uint64_t per_rank =
          op.bcast ? bcast_bytes : ag_bytes * (ranks - 1);
      const double gbps_v = gbps(per_rank, res.duration());
      const double mib = static_cast<double>(sw_bytes) / MiB;
      if (i == 1) mcast_ag_mib = mib;
      if (i == 2) ring_mib = mib;
      if (pr != nullptr) {
        pr->add_phases(res.max_phases);
        if (i < 2)  // multicast ops: chunks the receivers expect in total
          pr->add_chunks(per_rank / ccfg.chunk_bytes *
                         (op.bcast ? ranks - 1 : ranks));
      }
      op_us.push_back(to_microseconds(res.duration()));
      payload += static_cast<double>(per_rank);
      makespan_us += to_microseconds(res.duration());
      if (index == 0) {
        report.info(std::string("paper.sim_gbps.") + op.kind, gbps_v);
        report.info(std::string("paper.switch_mib.") + op.kind, mib);
      }
      if (pr != nullptr) {
        probe.set(std::string("sim_gbps.") + op.kind, gbps_v);
        probe.set(std::string("switch_mib.") + op.kind, mib);
      }
    }
    if (pr != nullptr) pr->finish(cluster);
    if (index == 0) {
      report_sim_ops(report, op_us, goodput_gbps(payload, makespan_us));
      // Fig 12 reference row (informational): the paper measures 1.5-2x
      // less switch traffic for multicast Allgather than for ring. Fig 11
      // has shape references only (multicast ahead of ring, Bcast near
      // link rate), no absolute numbers to compare against.
      report.info("paper.fig12.ring_over_mcast_ag_switch_traffic",
                  std::to_string(ring_mib / mcast_ag_mib) +
                      "x (paper: 1.5-2x)");
      report.info("paper.fig11.reference", "shape only");
    }
    out.fp.events = cluster.engine().dispatched();
    out.peak_rss_mib = peak_rss_mib();
    out.fp.extra = digest;
    return out;
  };

  drive(args, report, round, probe);

  if (args.trace) {
    probe.set("host_s.cluster_ctor", median(ctor_s));
    probe.set("host_s.comm_ctor", median(comm_s));
    probe.set("host_s.warmup_op", median(warm_s));
    for (std::size_t i = 0; i < 3; ++i)
      probe.set(std::string("host_ms_per_op.") + kCycle[i].kind,
                median(host_ms[i]));
    probe.report(report);
  }
}

}  // namespace perfbench
