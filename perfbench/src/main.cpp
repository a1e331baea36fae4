// Serving-path benchmark:
//   mw_perfbench --workload <city_rush|city_lookup|venue_rules> --seed <n>
//                --seconds <s> --trace <0|1> [--spans-out <path>]
// Prints a human-readable report, then one JSON line with the contract keys
// (correct, attempted, failed, metrics). Exits 1 on an oracle mismatch or a
// failed run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans-out") {
      args.spansOut = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds > 0;
}

void printJson(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <city_rush|city_lookup|venue_rules> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // Keeps every vCPU busy at the lowest scheduling priority for the whole
  // run, so the workload's threads never wait for the hypervisor to wake a
  // halted vCPU. Each RPC hop is a thread wake-up; on a virtual machine an
  // idle vCPU turns each into a host reschedule whose cost varies run to
  // run by more than any change this benchmark should see.
  perfbench::IdleSpinners spinners;
  const perfbench::CpuTicks ticksBefore = perfbench::CpuTicks::now();
  Result result;
  try {
    if (args.workload == "city_rush") {
      result = perfbench::runCityRush(args);
    } else if (args.workload == "city_lookup") {
      result = perfbench::runCityLookup(args);
    } else if (args.workload == "venue_rules") {
      result = perfbench::runVenueRules(args);
    } else {
      std::fprintf(stderr, "mw_perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mw_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d nproc=%u compiler=%s "
              "build_type=%s host_steal_pct=%.1f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(), MW_PERFBENCH_COMPILER,
              MW_PERFBENCH_BUILD_TYPE, perfbench::CpuTicks::now().stealPercentSince(ticksBefore));
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const auto& m : result.metrics) {
    std::printf("metric %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("oracle_mismatches %llu\n",
              static_cast<unsigned long long>(result.oracleMismatches));
  printJson(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
