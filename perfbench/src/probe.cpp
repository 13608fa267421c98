// LayerProbe: per-layer counters read through public accessors only.
#include <algorithm>
#include <cstring>
#include <tuple>
#include <unordered_set>

#include "perfbench/src/harness.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

using namespace mccl;

namespace {

struct NicTotals {
  std::uint64_t dma_bytes = 0, dma_ops = 0, rc_retx = 0, rnr = 0, broken = 0;
};

NicTotals nic_totals(coll::Cluster& c) {
  NicTotals t;
  for (std::size_t h = 0; h < c.num_hosts(); ++h) {
    rdma::Nic& n = c.nic(h);
    t.dma_bytes += n.dma_bytes();
    t.dma_ops += n.dma_ops();
    t.rc_retx += n.rc_retransmissions();
    t.rnr += n.ud_rnr_drops() + n.uc_rnr_drops();
    t.broken += n.uc_broken_messages();
  }
  return t;
}

struct WorkerTotals {
  double cqes = 0, instr = 0, stall = 0;
  Time busy = 0;
};

WorkerTotals worker_totals(coll::Cluster& c) {
  WorkerTotals t;
  for (std::size_t h = 0; h < c.num_hosts(); ++h) {
    for (exec::Complex* cx : {&c.cpu(h), &c.dpa(h)}) {
      for (std::size_t i = 0; i < cx->num_workers(); ++i) {
        exec::Worker& w = cx->worker(i);
        t.cqes += static_cast<double>(w.cqes_seen());
        t.instr += w.total_instr();
        t.stall += w.total_stall();
        t.busy += w.busy_time();
      }
    }
  }
  return t;
}

double counter_of(const telemetry::Snapshot& s, const char* key) {
  const auto it = s.find(key);
  return it == s.end() ? 0 : it->second.value;
}

bool is_rc_data(fabric::TransportOp op) {
  return op == fabric::TransportOp::kRcSendSeg ||
         op == fabric::TransportOp::kRcWriteSeg ||
         op == fabric::TransportOp::kRcReadReq ||
         op == fabric::TransportOp::kRcReadResp;
}

}  // namespace

// Accumulated per-layer totals: one slot per quantity, summed over every
// cluster the probe finished (pool peak: maximum).
enum Field : std::size_t {
  kEvents, kPackets, kBulkDrops, kCtrlDrops, kBlackHoled,
  kDmaBytes, kDmaOps, kRcRetx, kRnr, kBroken, kPoolPeak, kRcSends,
  kCqes, kInstr, kStall, kBusyUs,
  kHeartbeats, kSuspicions, kConfirmed,
  kSlowMarks, kLinkDeweights, kSubgroupRepins,
  kFetched, kFetchRetries, kFetchFailovers, kReroots, kMissingBlocks,
  kWatchdog, kSlowReroots, kFetchDetours, kRecorderEvicted,
  kNumFields
};
static_assert(kNumFields == std::tuple_size_v<LayerProbe::Totals>);

struct LayerProbe::Counts {
  // Baselines of the cluster currently attached.
  std::uint64_t events0 = 0;
  fabric::Fabric::TrafficSnapshot traffic0;
  NicTotals nic0;
  WorkerTotals work0;
  telemetry::Snapshot snap0;
  std::uint64_t recorded0 = 0;
  // Live counters fed by the fabric filter while attached.
  std::uint64_t rc_sends = 0;
  std::unordered_set<std::uint64_t> read_reqs;

  Totals t{};
};

LayerProbe::LayerProbe() : c_(std::make_unique<Counts>()) {
  static const std::pair<const char*, const char*> kExtra[] = {
      {"detector.confirm_latency_us", "us"},
      {"sched.queue_delay_us_p50", "us"},
      {"sched.admission_deferrals", "count"},
      {"sched.retries", "count"},
      {"sched.requeues", "count"},
      {"sched.peak_running", "count"},
      {"sched.jobs_failed", "count"},
      {"sim_gbps.mcast_bcast", "Gb/s"},
      {"sim_gbps.mcast_ag", "Gb/s"},
      {"sim_gbps.ring_ag", "Gb/s"},
      {"switch_mib.mcast_bcast", "MiB"},
      {"switch_mib.mcast_ag", "MiB"},
      {"switch_mib.ring_ag", "MiB"},
      {"sim_gbps.ud_bcast", "Gb/s"},
      {"sim_gbps.uc_bcast", "Gb/s"},
      {"hp_sim_op_us_tail", "us"},
      {"host_s.cluster_ctor", "s"},
      {"host_s.comm_ctor", "s"},
      {"host_s.warmup_op", "s"},
      {"host_s.sched_run", "s"},
      {"host_ms_per_op.mcast_bcast", "ms"},
      {"host_ms_per_op.mcast_ag", "ms"},
      {"host_ms_per_op.ring_ag", "ms"},
      {"host_ms_per_op.ud_bcast", "ms"},
      {"host_ms_per_op.uc_bcast", "ms"},
  };
  for (const auto& [name, unit] : kExtra) extra_[name] = {0.0, unit};
}

void LayerProbe::set(const std::string& name, double value) {
  const auto it = extra_.find(name);
  MCCL_CHECK_MSG(it != extra_.end(), "unknown layer metric");
  it->second.first = value;
}

LayerProbe::~LayerProbe() = default;

void LayerProbe::configure(coll::ClusterConfig& cfg) {
  cfg.telemetry.recorder_capacity = std::size_t{1} << 16;
}

void LayerProbe::attach(coll::Cluster& cluster) {
  Counts& c = *c_;
  c.events0 = cluster.engine().dispatched();
  c.traffic0 = cluster.fabric().traffic();
  c.nic0 = nic_totals(cluster);
  c.work0 = worker_totals(cluster);
  c.snap0 = cluster.telemetry().metrics.snapshot();
  c.recorded0 = cluster.telemetry().recorder.recorded();
  // Never drops: counts RC packets as they leave their source host. A
  // retransmitted read request reuses its PSN, so the set counts each
  // fetch read once.
  cluster.fabric().set_drop_filter(
      [&c](fabric::NodeId from, fabric::NodeId, const fabric::Packet& p) {
        if (from != p.src_host || !is_rc_data(p.th.op)) return false;
        ++c.rc_sends;
        if (p.th.op == fabric::TransportOp::kRcReadReq)
          c.read_reqs.insert((static_cast<std::uint64_t>(p.src_host) << 52) ^
                             (static_cast<std::uint64_t>(p.th.src_qpn) << 32) ^
                             p.th.psn);
        return false;
      });
}

void LayerProbe::finish(coll::Cluster& cluster) {
  Counts& c = *c_;
  Totals& t = c.t;
  const auto add = [&t](Field f, double v) { t[f] += v; };
  cluster.fabric().set_drop_filter({});
  add(kEvents,
      static_cast<double>(cluster.engine().dispatched() - c.events0));
  const auto tr = cluster.fabric().traffic();
  add(kPackets, static_cast<double>(tr.packets - c.traffic0.packets));
  add(kBulkDrops, static_cast<double>(tr.bulk_drops - c.traffic0.bulk_drops));
  add(kCtrlDrops, static_cast<double>(tr.ctrl_drops - c.traffic0.ctrl_drops));
  add(kBlackHoled,
      static_cast<double>(tr.black_holed - c.traffic0.black_holed));
  const NicTotals n = nic_totals(cluster);
  add(kDmaBytes, static_cast<double>(n.dma_bytes - c.nic0.dma_bytes));
  add(kDmaOps, static_cast<double>(n.dma_ops - c.nic0.dma_ops));
  add(kRcRetx, static_cast<double>(n.rc_retx - c.nic0.rc_retx));
  add(kRnr, static_cast<double>(n.rnr - c.nic0.rnr));
  add(kBroken, static_cast<double>(n.broken - c.nic0.broken));
  t[kPoolPeak] = std::max(
      t[kPoolPeak], static_cast<double>(cluster.fabric().pool().capacity()));
  add(kRcSends, static_cast<double>(c.rc_sends));
  add(kFetched, static_cast<double>(c.read_reqs.size()));
  c.rc_sends = 0;
  c.read_reqs.clear();
  const WorkerTotals w = worker_totals(cluster);
  add(kCqes, w.cqes - c.work0.cqes);
  add(kInstr, w.instr - c.work0.instr);
  add(kStall, w.stall - c.work0.stall);
  add(kBusyUs, to_microseconds(w.busy - c.work0.busy));

  const telemetry::Snapshot d = telemetry::MetricsRegistry::diff(
      cluster.telemetry().metrics.snapshot(), c.snap0);
  add(kHeartbeats, counter_of(d, "detector.heartbeats_sent"));
  add(kSuspicions, counter_of(d, "detector.suspicions"));
  add(kConfirmed, counter_of(d, "detector.confirmed_dead"));
  add(kSlowMarks, counter_of(d, "coll.adapt.slow_marks"));
  add(kLinkDeweights, counter_of(d, "coll.adapt.link_deweights"));
  add(kSubgroupRepins, counter_of(d, "coll.adapt.subgroup_repins"));

  // Protocol decisions the scheduler path never folds into the registry
  // are read back from the flight recorder (one entry per rank-level
  // event).
  const auto& rec = cluster.telemetry().recorder;
  add(kRecorderEvicted, static_cast<double>(rec.evicted()));
  for (const auto& e : rec.merged()) {
    if (e.seq < c.recorded0) continue;
    if (e.cat == telemetry::EventCat::kWatchdog) {
      add(kWatchdog, 1);
      continue;
    }
    const auto is = [&e](const char* what) {
      return std::strcmp(e.what, what) == 0;
    };
    if (is("fetch_retry")) add(kFetchRetries, 1);
    else if (is("fetch_failover") || is("fetch_dead_target"))
      add(kFetchFailovers, 1);
    else if (is("block_reroot")) add(kReroots, 1);
    else if (is("block_abandoned")) add(kMissingBlocks, 1);
    else if (is("slow_reroot")) add(kSlowReroots, 1);
    else if (is("fetch_detour")) add(kFetchDetours, 1);
  }
}

LayerProbe::Totals LayerProbe::totals() const { return c_->t; }

void LayerProbe::merge(const Totals& other) {
  Totals& t = c_->t;
  for (std::size_t f = 0; f < kNumFields; ++f)
    t[f] = f == kPoolPeak ? std::max(t[f], other[f]) : t[f] + other[f];
}

void LayerProbe::add_phases(const coll::Phases& p) {
  phases_.barrier += p.barrier;
  phases_.transfer += p.transfer;
  phases_.reliability += p.reliability;
  phases_.handshake += p.handshake;
  ++phase_ops_;
}

void LayerProbe::report(Report& r) const {
  const Totals& t = c_->t;
  const double ops = ops_ > 0 ? static_cast<double>(ops_) : 1.0;
  const double rounds = rounds_ > 0 ? static_cast<double>(rounds_) : 1.0;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  r.metric("sim.events_per_op", t[kEvents] / ops, "count");
  r.metric("sim.events_per_host_s", ratio(t[kEvents], host_s_), "1/s");

  r.metric("fabric.packets_per_op", t[kPackets] / ops, "count");
  r.metric("fabric.bulk_drops", t[kBulkDrops] / rounds, "count");
  r.metric("fabric.ctrl_drops", t[kCtrlDrops] / rounds, "count");
  r.metric("fabric.black_holed", t[kBlackHoled] / rounds, "count");

  r.metric("rdma.dma_mib_per_op", t[kDmaBytes] / ops / (1 << 20), "MiB");
  r.metric("rdma.dma_ops_per_op", t[kDmaOps] / ops, "count");
  r.metric("rdma.rc_retransmissions", t[kRcRetx] / rounds, "count");
  r.metric("rdma.rc_retx_ratio",
           ratio(t[kRcRetx], t[kRcSends]), "ratio");
  r.metric("rdma.rnr_drops", t[kRnr] / rounds, "count");
  r.metric("rdma.uc_broken_messages", t[kBroken] / rounds, "count");
  r.metric("rdma.pool_peak_packets", t[kPoolPeak], "count");

  r.metric("exec.cqes_per_op", t[kCqes] / ops, "count");
  r.metric("exec.cycles_per_cqe", ratio(t[kInstr] + t[kStall], t[kCqes]), "cycles");
  r.metric("exec.ipc", ratio(t[kInstr], t[kInstr] + t[kStall]), "ratio");
  r.metric("exec.busy_us_per_op", t[kBusyUs] / ops, "us");

  const double pops = phase_ops_ > 0 ? static_cast<double>(phase_ops_) : 1.0;
  r.metric("coll.phase_us.barrier", to_microseconds(phases_.barrier) / pops,
           "us");
  r.metric("coll.phase_us.transfer", to_microseconds(phases_.transfer) / pops,
           "us");
  r.metric("coll.phase_us.reliability",
           to_microseconds(phases_.reliability) / pops, "us");
  r.metric("coll.phase_us.handshake",
           to_microseconds(phases_.handshake) / pops, "us");
  const double fetched = t[kFetched];
  r.metric("coll.fast_path_ratio",
           chunks_ > 0 ? 1.0 - fetched / static_cast<double>(chunks_) : 1.0,
           "ratio");
  r.metric("coll.fetched_chunks", fetched / rounds, "count");
  r.metric("coll.fetch_retries", t[kFetchRetries] / rounds, "count");
  r.metric("coll.fetch_failovers", t[kFetchFailovers] / rounds, "count");
  r.metric("coll.reroots", t[kReroots] / rounds, "count");
  r.metric("coll.missing_blocks", t[kMissingBlocks] / rounds, "count");
  r.metric("coll.watchdog_fired", t[kWatchdog] / rounds, "count");

  r.metric("detector.heartbeats_per_op", t[kHeartbeats] / ops, "count");
  r.metric("detector.heartbeats_per_event", ratio(t[kHeartbeats], t[kEvents]),
           "ratio");
  r.metric("detector.suspicions", t[kSuspicions] / rounds, "count");
  r.metric("detector.confirmed_dead", t[kConfirmed] / rounds, "count");

  r.metric("health.slow_marks", t[kSlowMarks] / rounds, "count");
  r.metric("health.slow_reroots", t[kSlowReroots] / rounds, "count");
  r.metric("health.link_deweights", t[kLinkDeweights] / rounds, "count");
  r.metric("health.subgroup_repins", t[kSubgroupRepins] / rounds, "count");
  r.metric("health.fetch_detours", t[kFetchDetours] / rounds, "count");

  for (const auto& [name, v] : extra_) r.metric(name, v.first, v.second);
  r.info("probe.rc_sends", t[kRcSends]);
  r.info("probe.recorder_evicted", t[kRecorderEvicted]);
}

}  // namespace perfbench
