// perfbench: the repository benchmark.
//
//   perfbench --workload olap-large|serve-small|ycsb-write --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]
//             [--corrupt-oracle]
//
// Prints an environment stamp, the sample counts behind the metrics, and
// as its last line {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "metrics/perf_counters.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload olap-large|serve-small|ycsb-write "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--spans PATH] [--corrupt-oracle]\n",
               why);
  return 2;
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  in >> load;
  return load;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args->corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "olap-large") run = RunOlap;
  if (args.workload == "serve-small") run = RunServe;
  if (args.workload == "ycsb-write") run = RunYcsb;
  if (run == nullptr) return Usage("unknown workload");

  Report report;
  report.Env("workload", args.workload);
  report.Env("seed", std::to_string(args.seed));
  report.Env("seconds", args.seconds);
  report.Env("trace", args.trace ? 1.0 : 0.0);
  report.Env("size", args.size == Size::kTiny ? "tiny" : "full");
  report.Env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Env("simd", amac::SimdLevelName(amac::DetectedSimdLevel()));
  report.Env("perf_valid", amac::PerfCounters().available() ? 1.0 : 0.0);
  report.Env("compiler", std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  report.Env("build_type", PERFBENCH_BUILD_TYPE);
  report.Env("tsc_hz", TscHz());
  report.Env("load1_before", LoadAverage1());
  const double start = NowSeconds();
  run(args, report);
  report.Env("wall_s", NowSeconds() - start);
  report.Env("load1_after", LoadAverage1());
  report.Print();
  return 0;
}
