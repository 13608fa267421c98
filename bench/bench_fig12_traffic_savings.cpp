// Figure 12 — Measured traffic reduction across the testbed's switches:
// switch-port byte counters while running Broadcast and Allgather with a
// 64 KiB send buffer, multicast vs P2P algorithms.
//
// Expect: multicast-based algorithms move 1.5x-2x fewer bytes through the
// switches than their P2P counterparts (Broadcast vs binomial tree;
// Allgather vs ring).
#include "bench/bench_common.hpp"

namespace {
using namespace mccl;

constexpr std::size_t kRanks = 188;
constexpr std::uint64_t kBytes = 64 * KiB;
constexpr int kIters = 10;  // the paper runs 10 iterations per counter read

enum Workload {
  kBcastMcast = 0,
  kBcastBinomial = 1,
  kAgMcast = 2,
  kAgRing = 3,
};

void BM_Fig12(benchmark::State& state) {
  const Workload wl = static_cast<Workload>(state.range(0));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 20 * kMillisecond;
  std::uint64_t switch_bytes = 0, total_bytes = 0;
  for (auto _ : state) {
    bench::World w(bench::ucc_testbed_topology(), bench::ucc_testbed_cluster(),
                   cfg, kRanks);
    w.cluster->fabric().reset_counters();
    Time dur = 0;
    for (int i = 0; i < kIters; ++i) {
      switch (wl) {
        case kBcastMcast:
          dur += w.comm->broadcast(0, kBytes, coll::BcastAlgo::kMcast)
                     .duration();
          break;
        case kBcastBinomial:
          dur += w.comm->broadcast(0, kBytes, coll::BcastAlgo::kBinomial)
                     .duration();
          break;
        case kAgMcast:
          dur += w.comm->allgather(kBytes, coll::AllgatherAlgo::kMcast)
                     .duration();
          break;
        case kAgRing:
          dur += w.comm->allgather(kBytes, coll::AllgatherAlgo::kRing)
                     .duration();
          break;
      }
    }
    const auto t = w.cluster->fabric().traffic();
    switch_bytes = t.switch_port_bytes;
    total_bytes = t.total_bytes;
    bench::record_sim_time(state, dur);
  }
  state.counters["switch_port_MiB"] =
      static_cast<double>(switch_bytes) / MiB;
  state.counters["fabric_MiB"] = static_cast<double>(total_bytes) / MiB;
  bench::set_detector(state, cfg);
}

void register_all() {
  const char* names[] = {"Fig12/bcast_mcast", "Fig12/bcast_binomial",
                         "Fig12/allgather_mcast", "Fig12/allgather_ring"};
  for (int wl = 0; wl < 4; ++wl)
    benchmark::RegisterBenchmark(names[wl], BM_Fig12)
        ->Arg(wl)
        ->UseManualTime()
        ->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 12: switch traffic, 64 KiB x 10 iterations, 188 "
                "nodes / 18 switches",
                "Expect: mcast variants show 1.5x-2x lower switch_MiB than "
                "binomial bcast / ring allgather.");
  register_all();
  return bench::run_main(argc, argv);
}
