// mccl_perfbench: one seeded workload per invocation, both clocks.
//
//   mccl_perfbench --workload <paper_scale|dpa_datapath|tenants_chaos>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--inject <status|data|determinism>]
//
// Prints human-readable rows on stderr, then an info JSON line and the
// result JSON line on stdout. perfbench/run.py builds this binary and
// selects the metrics BENCHMARK.json names. README.md documents the
// workloads and the layer -> metric map.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/src/harness.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mccl_perfbench: %s\nusage: mccl_perfbench --workload "
               "<paper_scale|dpa_datapath|tenants_chaos> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--inject "
               "<status|data|determinism>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--inject") {
      a.inject = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (!a.inject.empty() && a.inject != "status" && a.inject != "data" &&
      a.inject != "determinism")
    usage("unknown --inject kind");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;

  // Honest host clock: host numbers from anything but an optimized build
  // are not comparable, so such a run is reported incorrect.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report.info("env.build_type", build_type);
  report.info("env.compiler", PERFBENCH_COMPILER);
  report.info("env.host_cpus",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.info("env.clock", "steady_clock wall time");
  report.info("run.workload", args.workload);
  report.info("run.seed", std::to_string(args.seed));
  report.info("run.trace", args.trace ? "1" : "0");
  if (args.smoke) report.info("run.smoke", "1");
  if (build_type != "Release")
    report.fail("build type is " + build_type + ", not Release");

  if (args.workload == "paper_scale") {
    run_paper_scale(args, report);
  } else if (args.workload == "dpa_datapath") {
    run_dpa_datapath(args, report);
  } else if (args.workload == "tenants_chaos") {
    run_tenants_chaos(args, report);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  report.print();
  return 0;
}
