#include "perfbench/src/harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  static const std::pair<double, const char*> kLevels[] = {
      {99.9, "p99.9"}, {99, "p99"}, {95, "p95"},
      {90, "p90"},     {75, "p75"}, {50, "p50"}};
  for (const auto& [pct, label] : kLevels) {
    const double n = static_cast<double>(v.size());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(pct / 100.0 * n)));
    if (v.size() >= rank + 10) {
      t.value = percentile(v, pct);
      t.label = label;
      t.beyond = v.size() - rank;
      return t;
    }
  }
  t.value = v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  t.label = "max";
  return t;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

bool rss_reset() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  info_.emplace_back(key, buf);
}

void Report::fail(const std::string& what) { errors_.push_back(what); }

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

void Report::print() const {
  for (const auto& [k, v] : info_)
    std::fprintf(stderr, "  %-36s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, m] : metrics_)
    std::fprintf(stderr, "  %-36s %.6g %s\n", k.c_str(), m.value,
                 m.unit.c_str());
  for (const auto& e : errors_)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  // Info rows travel as one JSON line ahead of the result line, so a
  // reader can keep them with the numbers.
  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    info += (i ? ", \"" : "\"") + json_escape(info_[i].first) + "\": \"" +
            json_escape(info_[i].second) + "\"";
  }
  info += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    info += (i ? ", \"" : "\"") + json_escape(errors_[i]) + "\"";
  info += "]}";
  std::printf("%s\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + json_escape(k) + "\": {\"value\": " +
           num + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void drive(const Args& args, Report& report, const RoundFn& round,
           LayerProbe& probe) {
  // Two rounds untraced, so the determinism check always has a repeat; one
  // per pass when traced (the traced pass repeats the untraced one).
  const std::size_t min_rounds = args.trace ? 1 : 2;
  std::vector<double> setup_s;
  std::uint64_t ops[2] = {0, 0};
  double host_s[2] = {0, 0};
  Fingerprint first;
  std::vector<double> rss;
  std::vector<double> rates;  // untraced rounds' ops per timed host second
  std::string round_s;        // timed host seconds of each round, for the log
  std::size_t index = 0;
  const int passes = args.trace ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    const double budget = args.seconds / passes;
    const bool traced = pass == 1;
    Stopwatch sw;
    for (std::size_t n = 0; n < min_rounds || sw.seconds() < budget;
         ++n, ++index) {
      RoundResult r = round(index, traced ? &probe : nullptr);
      if (index == 1 && args.inject == "determinism") r.fp.events += 1;
      if (index == 0) {
        first = r.fp;
        report.metric("ops_ok_ratio",
                      r.attempts > 0 ? static_cast<double>(r.ok_attempts) /
                                           static_cast<double>(r.attempts)
                                     : 0.0,
                      "ratio");
      } else if (!(r.fp == first)) {
        report.fail("round " + std::to_string(index) +
                    " diverged from round 0 on the simulated clock (events " +
                    std::to_string(r.fp.events) + " vs " +
                    std::to_string(first.events) + ")");
      }
      report.close_ledger();
      setup_s.push_back(r.setup_s);
      rss.push_back(r.peak_rss_mib);
      ops[pass] += r.ops;
      host_s[pass] += r.op_host_s;
      if (!traced && r.op_host_s > 0)
        rates.push_back(static_cast<double>(r.ops) / r.op_host_s);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", round_s.empty() ? "" : " ",
                    r.op_host_s);
      round_s += buf;
      if (traced) probe.count_round(r.ops, r.op_host_s);
    }
  }
  // A median over rounds, so a burst of load from outside the process
  // that slows one round does not move the figure.
  report.metric("ops_per_host_s", median(rates), "1/s");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mib", median(rss), "MiB");
  report.info("sim.events_per_round", static_cast<double>(first.events));
  report.info("host.rounds", static_cast<double>(index));
  report.info("host.timed_ops", static_cast<double>(ops[0]));
  report.info("host.timed_s", host_s[0]);
  report.info("host.round_timed_s", round_s);
  if (args.trace) {
    const double untraced = host_s[0] / static_cast<double>(ops[0]);
    const double traced = host_s[1] / static_cast<double>(ops[1]);
    report.metric("trace_overhead_pct", 100.0 * (traced / untraced - 1.0),
                  "%");
  }
}

double goodput_gbps(double payload_bytes, double makespan_us) {
  return makespan_us > 0 ? payload_bytes * 8.0 / (makespan_us * 1e3) : 0;
}

void report_sim_ops(Report& report, const std::vector<double>& op_us,
                    double goodput) {
  report.metric("sim_op_us_p50", median(op_us), "us");
  report.info("sim_op_us.samples", static_cast<double>(op_us.size()));
  const Tail t = tail_of(op_us);
  report.metric("sim_op_us_tail", t.value, "us");
  report.info("sim_op_us_tail.percentile", t.label);
  report.info("sim_op_us_tail.samples_beyond", static_cast<double>(t.beyond));
  report.metric("sim_goodput_gbps", goodput, "Gb/s");
}

bool check_op(const Args& args, Report& report, mccl::coll::OpResult res,
               const std::string& what, bool first_op) {
  if (first_op && args.inject == "status") {
    res.failed = true;
    res.status = mccl::coll::OpStatus::kFailed;
    res.error = "injected by --inject status";
  }
  if (first_op && args.inject == "data") res.data_verified = false;
  const bool ok = !res.failed && res.status == mccl::coll::OpStatus::kOk &&
                  res.data_verified;
  report.attempt(ok);
  if (!ok)
    report.fail(what + " ended " + mccl::coll::to_string(res.status) +
                (res.failed ? " (failed: " + res.error + ")" : "") +
                (res.data_verified ? "" : ", data not verified"));
  return ok;
}

// --- testbeds -----------------------------------------------------------------

mccl::coll::ClusterConfig synthetic_cluster() {
  mccl::coll::ClusterConfig cfg;
  cfg.nic.carry_payload = false;
  cfg.nic.memory_capacity = std::uint64_t{1} << 44;
  return cfg;
}

mccl::fabric::Topology ucc_testbed_topology() {
  // 12 leaves x 16 hosts, 6 spines, 3 trunks per leaf-spine pair: 18
  // switches at 56 Gbit/s, 192 hosts; the paper's cluster has 188.
  mccl::fabric::LinkParams link{56.0, 500 * mccl::kNanosecond};
  return mccl::fabric::make_fat_tree(12, 16, 6, 3, link, link);
}

mccl::coll::ClusterConfig ucc_testbed_cluster() {
  mccl::coll::ClusterConfig cfg = synthetic_cluster();
  cfg.fabric.switch_latency = 150 * mccl::kNanosecond;
  return cfg;
}

mccl::fabric::Topology dpa_testbed_topology() {
  return mccl::fabric::make_back_to_back({200.0, 500 * mccl::kNanosecond});
}

}  // namespace perfbench
