//===- main.cpp - perfbench: the validator's benchmark command ------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//   perfbench --workload cold-pairs|warm-replay|fleet-open --seed N
//             --seconds S --trace 0|1 [--suite-seed N] [--work-dir DIR]
//             [--worker PATH] [--trace-out FILE]
//
// Runs one workload and prints every metric as `name = value unit`, the
// host's state, and as the last line one JSON object with `correct`,
// `attempted`, `failed` and `metrics`. With --trace 1 it runs the traced
// layer sweep instead and reports the per-layer metrics. Exits 1 when any
// verdict was wrong or any operation failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold-pairs|warm-replay|fleet-open --seed N --seconds S "
               "--trace 0|1 [--suite-seed N] [--work-dir DIR] [--worker "
               "PATH] [--trace-out FILE]\n",
               Msg);
  return 2;
}

/// The workload's own name for the shared latency metrics: per call in
/// cold-pairs, per job elsewhere.
std::string alias(const std::string &Workload, const std::string &Name) {
  if (Name.rfind("latency_ms_", 0) != 0)
    return "";
  return (Workload == "cold-pairs" ? "verdict_ms_" : "job_ms_") +
         Name.substr(std::strlen("latency_ms_"));
}

void printMetric(const Metric &M, const std::string &Alias) {
  std::printf("  %-32s = %.6g %s%s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(),
              Alias.empty() ? "" : ("  (" + Alias + ")").c_str());
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--suite-seed")
      O.SuiteSeed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--worker")
      O.WorkerBinary = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  void (*Run)(const Options &, RunResult &) = nullptr;
  if (O.Workload == "cold-pairs")
    Run = runColdPairs;
  else if (O.Workload == "warm-replay")
    Run = runWarmReplay;
  else if (O.Workload == "fleet-open")
    Run = [](const Options &Opt, RunResult &Res) { runFleetOpen(Opt, Res); };
  else
    return usage("unknown workload");
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");

  std::printf("perfbench %s seed=%llu suite-seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(O.SuiteSeed), O.Seconds,
              O.Trace ? 1 : 0);
  std::printf("host: nproc=%u load1=%.2f\n",
              std::thread::hardware_concurrency(), loadAverage1());
  std::fflush(stdout);

  RunResult R;
  CpuTicks Ticks0 = cpuTicks();
  if (O.Trace)
    runLayers(O, R);
  else
    Run(O, R);
  R.info("host.steal_pct", "%", stealPct(Ticks0, cpuTicks()));

  std::printf("metrics:\n");
  for (const Metric &M : R.Metrics)
    printMetric(M, alias(O.Workload, M.Name));
  for (const Metric &M : R.Info)
    printMetric(M, "");
  std::printf("  %-32s = %.6g %%\n", "failed_pct",
              R.Attempted ? 100.0 * R.Failed / R.Attempted : 100.0);
  std::printf("host: load1=%.2f at end\n", loadAverage1());
  for (const std::string &V : R.Violations)
    std::printf("VIOLATION: %s\n", V.c_str());

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, R.Attempted)),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
