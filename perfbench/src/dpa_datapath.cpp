// dpa_datapath: the Table I receive datapath, carrying real payload.
//
// One round = a fresh 2-host back-to-back 200 Gbit/s cluster with two
// communicators over the same hosts, a UD one and a UC one, each with one
// DPA receive thread and a CPU send engine (the Table I setup: cutoff
// alpha 1 s, 4096 staging slots). After one untimed warm-up Bcast per
// communicator, the round alternates 8 MiB-class multicast Bcasts (rank 0
// -> rank 1; each a seeded 0-31 chunks short of 8 MiB) between them. Every byte is copied and verified, so the host cost
// is the exec cost model, UD staging, UC writes and the DMA copies behind
// them. Arenas are bump-allocated and never freed, so a round is kept to a
// few ops and the next round starts on a fresh cluster.
#include "perfbench/src/harness.hpp"

namespace perfbench {

using namespace mccl;

namespace {

coll::CommConfig table1_config(coll::Transport transport,
                               std::uint64_t detector_seed) {
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 1 * kSecond;  // saturated receiver, no slow-path rescue
  cfg.send_engine = coll::EngineKind::kCpu;
  cfg.progress_engine = coll::EngineKind::kDpa;
  cfg.transport = transport;
  cfg.subgroups = 1;
  cfg.send_workers = 1;
  cfg.recv_workers = 1;  // one DPA hardware thread
  cfg.staging_slots = 4096;
  cfg.detector.seed = detector_seed;
  return cfg;
}

// Table I, paper values (GiB/s).
constexpr double kPaperUdGibps = 5.2;
constexpr double kPaperUcGibps = 11.9;

}  // namespace

void run_dpa_datapath(const Args& args, Report& report) {
  const std::uint64_t bytes = args.smoke ? 512 * KiB : 8 * MiB;
  const std::size_t pairs = 2;  // timed (UD, UC) pairs per round
  const std::uint64_t fabric_seed = derive(args.seed, 1);
  const std::uint64_t ud_detector_seed = derive(args.seed, 2);
  const std::uint64_t uc_detector_seed = derive(args.seed, 3);
  // The seeded share of the input: which transport goes first in a pair,
  // and how many 4 KiB chunks (0-31) each timed Bcast is short of 8 MiB.
  const bool uc_first = (derive(args.seed, 4) & 1) != 0;
  std::vector<std::uint64_t> sizes;
  for (std::size_t i = 0; i < 2 * pairs; ++i)
    sizes.push_back(bytes - (derive(args.seed, 5 + i) % 32) * 4 * KiB);

  LayerProbe probe;
  std::vector<double> ctor_s, comm_s, warm_s, host_ms[2];
  const char* const kKinds[2] = {"ud_bcast", "uc_bcast"};

  const RoundFn round = [&](std::size_t index, LayerProbe* pr) {
    RoundResult out;
    coll::ClusterConfig kcfg;  // payload-carrying, backed arenas
    kcfg.fabric.seed = fabric_seed;
    if (pr != nullptr) LayerProbe::configure(kcfg);

    if (!rss_reset()) report.fail("cannot reset the peak-RSS window");
    Stopwatch setup;
    coll::Cluster cluster(dpa_testbed_topology(), kcfg);
    const double t_cluster = setup.seconds();
    const std::vector<fabric::NodeId> hosts = {0, 1};
    coll::Communicator ud(cluster, hosts,
                          table1_config(coll::Transport::kUd,
                                        ud_detector_seed));
    coll::Communicator uc(cluster, hosts,
                          table1_config(coll::Transport::kUcMcast,
                                        uc_detector_seed));
    coll::Communicator* comms[2] = {&ud, &uc};
    const double t_comm = setup.seconds();
    for (coll::Communicator* c : comms)
      check_op(args, report, c->broadcast(0, bytes, coll::BcastAlgo::kMcast),
               "dpa_datapath warm-up bcast", false);
    out.setup_s = setup.seconds();
    ctor_s.push_back(t_cluster);
    comm_s.push_back(t_comm - t_cluster);
    warm_s.push_back(out.setup_s - t_comm);

    if (pr != nullptr) pr->attach(cluster);
    std::vector<double> op_us, kind_gbps[2];
    double payload = 0, makespan_us = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      for (std::size_t j = 0; j < 2; ++j) {
        const std::size_t k = uc_first ? 1 - j : j;
        Stopwatch sw;
        const std::uint64_t len = sizes[2 * p + j];
        const coll::OpResult res =
            comms[k]->broadcast(0, len, coll::BcastAlgo::kMcast);
        const double host = sw.seconds();
        out.attempts += 1;
        out.ok_attempts +=
            check_op(args, report, res,
                     std::string("dpa_datapath ") + kKinds[k],
                     index == 0 && p == 0 && j == 0);
        out.ops += 1;
        out.op_host_s += host;
        host_ms[k].push_back(host * 1e3);
        out.fp.op_durations.push_back(res.duration());
        op_us.push_back(to_microseconds(res.duration()));
        makespan_us += to_microseconds(res.duration());
        // Table I methodology: throughput of the leaf's receive phase.
        kind_gbps[k].push_back(gbps(len, res.max_phases.transfer));
        payload += static_cast<double>(len);
        if (pr != nullptr) {
          pr->add_phases(res.max_phases);
          pr->add_chunks(len / comms[k]->config().chunk_bytes);
        }
      }
    }
    if (pr != nullptr) pr->finish(cluster);
    if (index == 0) {
      report_sim_ops(report, op_us, goodput_gbps(payload, makespan_us));
      const double paper[2] = {kPaperUdGibps, kPaperUcGibps};
      for (std::size_t k = 0; k < 2; ++k) {
        const double g = median(kind_gbps[k]);
        const double gib = g * 1e9 / 8.0 / (1ull << 30);
        report.info(std::string("paper.sim_gbps.") + kKinds[k], g);
        report.info(std::string("paper.table1.") + kKinds[k],
                    std::to_string(gib) + " GiB/s vs paper " +
                        std::to_string(paper[k]) + " GiB/s (" +
                        std::to_string(100.0 * (gib / paper[k] - 1.0)) +
                        "% error)");
        probe.set(std::string("sim_gbps.") + kKinds[k], g);
      }
    }
    out.fp.events = cluster.engine().dispatched();
    out.peak_rss_mib = peak_rss_mib();
    return out;
  };

  drive(args, report, round, probe);

  if (args.trace) {
    probe.set("host_s.cluster_ctor", median(ctor_s));
    probe.set("host_s.comm_ctor", median(comm_s));
    probe.set("host_s.warmup_op", median(warm_s));
    for (std::size_t k = 0; k < 2; ++k)
      probe.set(std::string("host_ms_per_op.") + kKinds[k],
                median(host_ms[k]));
    probe.report(report);
  }
}

}  // namespace perfbench
