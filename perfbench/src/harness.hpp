// Shared plumbing of the end-to-end benchmark: command line, host clock,
// the metric report, percentile helpers and the per-layer probe.
//
// Two clocks run side by side. *Host* time (std::chrono::steady_clock wall
// time, never CPU time) is how fast the simulator produces results;
// *simulated* time (engine nanoseconds) is what the protocol achieves on the
// modeled hardware. Every workload is a seeded "round" — a fixed sequence of
// collectives on freshly built state — repeated until the time budget is
// spent. Each round must reproduce the first round's simulated fingerprint
// exactly; simulated metrics come from the first round, host metrics from
// all of them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/coll/cluster.hpp"
#include "src/coll/communicator.hpp"

namespace perfbench {

using mccl::Time;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // toy sizes, same code paths
  /// Deliberately corrupts one result so the correctness checks can be
  /// shown to fire: "status" (an op reports kFailed), "data" (verification
  /// fails), "determinism" (a repeated round disagrees).
  std::string inject;
};

/// Derives an independent 64-bit stream seed from the run seed (splitmix64
/// finalizer over seed ^ tag): every random input of a workload comes from
/// one of these, so the command-line seed alone fixes the inputs.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Nearest-rank percentile (no interpolation) of an unsorted sample.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);

/// Tail latency: the highest percentile (among p99.9, p99, p95, p90, p75,
/// p50) that still leaves at least 10 samples above it; with fewer than 11
/// samples, the maximum. Reports which percentile was used.
struct Tail {
  double value = 0;
  std::string label;  // "p99", ..., or "max"
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& v);

/// Peak resident set size of this process since the last rss_reset() (or
/// since start), MiB, from VmHWM in /proc/self/status.
double peak_rss_mib();
/// Returns freed heap to the OS (malloc_trim) and restarts the peak-RSS
/// window (/proc/self/clear_refs), so the next peak_rss_mib() covers only
/// what runs after it. Returns false where the kernel refuses the reset.
bool rss_reset();

/// Everything one invocation prints: named metrics with units, free-form
/// info rows, and the correctness ledger.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Records a failed correctness check; the run is reported incorrect.
  void fail(const std::string& what);
  /// Counts one operation of the seeded work. Only round 0 counts: how many
  /// rounds fit the budget depends on the host, and every later round must
  /// reproduce round 0 (a divergence fails the run instead), so
  /// `attempted` and `failed` depend on the seed alone.
  void attempt(bool ok) {
    if (ledger_closed_) return;
    ++attempted_;
    if (!ok) ++failed_;
  }
  void close_ledger() { ledger_closed_ = true; }
  bool correct() const { return errors_.empty(); }

  /// Human-readable rows on stderr, then the single JSON result line on
  /// stdout (the last line the process prints).
  void print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool ledger_closed_ = false;
};

/// Simulated-clock fingerprint of one round: every value must repeat
/// bit-for-bit when the same seeded round runs again.
struct Fingerprint {
  std::uint64_t events = 0;
  std::vector<Time> op_durations;
  std::uint64_t extra = 0;  // workload-specific digest (traffic, ledger)
  bool operator==(const Fingerprint&) const = default;
};

/// Per-layer counters read from outside the library (traced runs only).
/// Attach before the round's timed ops, finish() after; counts accumulate
/// over every cluster attached. Reads registry snapshots/diffs, engine and
/// fabric accessors, NIC and worker totals, and a non-dropping fabric
/// filter that counts RC packets at injection.
class LayerProbe {
 public:
  LayerProbe();
  ~LayerProbe();
  /// Telemetry settings a traced cluster needs (a flight recorder deep
  /// enough to keep every protocol event of a round).
  static void configure(mccl::coll::ClusterConfig& cfg);
  void attach(mccl::coll::Cluster& cluster);
  /// Reads the end-of-round state of the attached cluster.
  void finish(mccl::coll::Cluster& cluster);
  /// Closes one traced round: `n` completed ops, `host_s` seconds of timed
  /// host work.
  void count_round(std::uint64_t n, double host_s) {
    ++rounds_;
    ops_ += n;
    host_s_ += host_s;
  }
  /// The accumulated counters, and adding another probe's (a forked child
  /// ships its episode's counters back this way).
  using Totals = std::array<double, 31>;
  Totals totals() const;
  void merge(const Totals& other);
  /// Emits every layer metric: per op where the name says so, otherwise
  /// per round (the workload's seeded unit of work).
  void report(Report& r) const;

  /// Fig 10 phase sums (blocking ops only; the scheduler keeps no op
  /// handles) and mcast chunk totals, fed by the workloads.
  void add_phases(const mccl::coll::Phases& p);
  void add_chunks(std::uint64_t chunks) { chunks_ += chunks; }
  /// Layer values a workload measures itself (scheduler ledger, detector
  /// confirmation latency, paper figure points). Every key is preset to 0
  /// so each workload prints the same metric set; a workload overwrites
  /// the ones it exercises.
  void set(const std::string& name, double value);

 private:
  struct Counts;
  std::unique_ptr<Counts> c_;
  std::uint64_t rounds_ = 0;
  std::uint64_t ops_ = 0;
  double host_s_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t phase_ops_ = 0;
  mccl::coll::Phases phases_;
  std::map<std::string, std::pair<double, std::string>> extra_;
};

// --- testbeds (same parameters as bench/bench_common.cpp) -------------------

/// Timing-only config: no payload bytes, address-space-only arenas.
mccl::coll::ClusterConfig synthetic_cluster();
/// The paper's UCC testbed: two-level fat tree, 56 Gbit/s links.
mccl::fabric::Topology ucc_testbed_topology();
mccl::coll::ClusterConfig ucc_testbed_cluster();
/// The paper's DPA testbed: two hosts back to back at 200 Gbit/s.
mccl::fabric::Topology dpa_testbed_topology();

// --- workloads ---------------------------------------------------------------

void run_paper_scale(const Args& args, Report& report);
void run_dpa_datapath(const Args& args, Report& report);
void run_tenants_chaos(const Args& args, Report& report);

/// What one seeded round returns to the round loop.
struct RoundResult {
  Fingerprint fp;
  double setup_s = 0;    // host seconds up to the first timed op
  std::uint64_t ops = 0;  // timed ops completed
  double op_host_s = 0;  // host seconds spent in the timed ops
  /// Peak RSS while one simulated cluster of the round existed (median
  /// over the round's clusters when it builds several), MiB.
  double peak_rss_mib = 0;
  /// Op attempts of the round's timed phase (retries count) and those that
  /// ended kOk with every check passed.
  std::uint64_t attempts = 0;
  std::uint64_t ok_attempts = 0;
};

/// Runs `round` until the time budget is spent (at least twice, or once
/// per pass when traced), checks every round against the first round's
/// fingerprint, and reports the host metrics. With --trace 1 the budget is
/// split: an untraced pass, then a traced pass whose rounds receive the
/// probe; trace_overhead_pct compares the two passes, and the caller
/// reports the probe's per-layer metrics afterwards.
/// `round(index, probe)` must record its simulated metrics when index == 0.
using RoundFn = std::function<RoundResult(std::size_t index, LayerProbe* probe)>;
void drive(const Args& args, Report& report, const RoundFn& round,
           LayerProbe& probe);

/// Per-rank payload delivered (summed over ops) over a simulated makespan,
/// in Gbit/s.
double goodput_gbps(double payload_bytes, double makespan_us);

/// Round-0 simulated metrics every workload reports: per-op latency p50
/// and tail, and the workload's goodput.
void report_sim_ops(Report& report, const std::vector<double>& op_us,
                    double goodput);

/// Op-level correctness check shared by the blocking workloads: the op must
/// end kOk, not fail, and (with payload) verify byte-for-byte. `inject`
/// corrupts the result first when the smoke test asks for it.
/// Returns whether the op passed.
bool check_op(const Args& args, Report& report, mccl::coll::OpResult res,
              const std::string& what, bool first_op);

}  // namespace perfbench
