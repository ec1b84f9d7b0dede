//===- Common.h - Shared plumbing of the perfbench workloads ----*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, clocks, percentiles and the result record every workload fills.
/// A workload reports metrics by name and unit, counts attempted and failed
/// operations, and records every correctness violation it sees; main()
/// prints the lot and exits nonzero if anything failed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string Workload;
  /// Drives every seeded choice of a run: the planted bugs, the warm
  /// store's filler, and which earlier fleet job each resubmission repeats.
  uint64_t Seed = 0;
  /// Mixed into every profile's generator seed; 0 keeps the built-in
  /// seeds. Kept apart from Seed because the suite's cost depends on it.
  uint64_t SuiteSeed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for stores, sockets and the trace (relative paths:
  /// unix socket names must stay short).
  std::string WorkDir = ".";
  std::string WorkerBinary = "./validate_server";
  /// Set-ups per run; setup_s is their median. The traced run sets 1.
  unsigned SetupRepeats = 5;
  /// Where the traced run writes its Chrome trace.
  std::string TraceOut = "perfbench-trace.json";
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// What one run reports. Violations are human-readable; each also counts
/// as a failed operation.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Printed for the reader, never part of the result JSON.
  std::vector<Metric> Info;
  std::vector<std::string> Violations;

  void add(const std::string &Name, const std::string &Unit, double V) {
    Metrics.push_back({Name, Unit, V});
  }
  void info(const std::string &Name, const std::string &Unit, double V) {
    Info.push_back({Name, Unit, V});
  }
  /// Records a violation; it also counts as a failed operation.
  void fail(const std::string &What);
};

double secondsSince(Clock::time_point T);
double msBetween(Clock::time_point A, Clock::time_point B);
/// CPU time of the calling thread, in seconds.
double threadCpuSeconds();
/// Nearest-rank percentile (P in [0,100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// Peak RSS of this process (and, with \p Children, of its waited-for
/// children), in MB.
double peakRssMb(bool Children = false);
double loadAverage1();
uint64_t fileBytes(const std::string &Path);

/// The host's CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t Steal = 0, Total = 0;
};
CpuTicks cpuTicks();
/// Share of CPU time the hypervisor gave to other guests between \p A and
/// \p B, in percent.
double stealPct(const CpuTicks &A, const CpuTicks &B);

/// Pins the calling thread to the CPU it runs on, for the object's
/// lifetime. Threads it creates meanwhile inherit the pin, so an engine
/// built inside a timed loop hands work between its threads on one CPU
/// instead of waking a thread on another one. Restores the old mask.
class PinToCurrentCpu {
public:
  PinToCurrentCpu();
  ~PinToCurrentCpu();
  PinToCurrentCpu(const PinToCurrentCpu &) = delete;
  PinToCurrentCpu &operator=(const PinToCurrentCpu &) = delete;

private:
  std::vector<unsigned char> Saved; ///< the old cpu_set_t, or empty
};

/// Pins every thread of process \p Pid to \p Cpu; threads it creates
/// later inherit the pin. False if any thread could not be pinned.
bool pinProcess(int Pid, unsigned Cpu);

/// Splitmix64: the benchmark's own seeded stream.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

/// The end-to-end metric set every workload reports (tracing off). The
/// latency percentiles are per operation: one validatePair call in
/// cold-pairs, one job in warm-replay and fleet-open. \p Samples is the
/// number of operations timed.
void addEndToEnd(RunResult &R, double SetupS, double PairsPerS, double P50Ms,
                 double P99Ms, size_t Samples, uint64_t Validated,
                 uint64_t Considered, double RssMb);

/// Builds the workload's state \p Repeats times with \p Build (which
/// returns a std::unique_ptr), stores the median build time in
/// \p MedianS and returns the last state. Tearing down the previous state
/// happens outside the timed region.
template <typename Fn>
auto medianSetup(unsigned Repeats, double &MedianS, Fn &&Build) {
  decltype(Build()) Last;
  std::vector<double> T;
  for (unsigned I = 0; I < (Repeats ? Repeats : 1); ++I) {
    Last.reset();
    Clock::time_point S = Clock::now();
    Last = Build();
    T.push_back(secondsSince(S));
  }
  MedianS = median(T);
  return Last;
}

// The three workloads and the traced layer run. Each fills \p R.
void runColdPairs(const Options &O, RunResult &R);
void runWarmReplay(const Options &O, RunResult &R);
/// With \p T, the fleet run reports its per-layer metrics and job spans
/// instead of the end-to-end set.
void runFleetOpen(const Options &O, RunResult &R, class Tracer *T = nullptr);
void runLayers(const Options &O, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
