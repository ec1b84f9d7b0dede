//===- Common.cpp - Shared plumbing of the perfbench workloads ------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

namespace perfbench {

void RunResult::fail(const std::string &What) {
  ++Failed;
  // Keep the report readable when one bug fails every operation.
  if (Violations.size() < 20)
    Violations.push_back(What);
}

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double threadCpuSeconds() {
  timespec TS{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return TS.tv_sec + TS.tv_nsec * 1e-9;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double peakRssMb(bool Children) {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  long MaxKb = Self.ru_maxrss;
  if (Children) {
    getrusage(RUSAGE_CHILDREN, &Kids);
    MaxKb = std::max(MaxKb, Kids.ru_maxrss);
  }
  return MaxKb / 1024.0;
}

double loadAverage1() {
  double L[1] = {0};
  return getloadavg(L, 1) == 1 ? L[0] : -1;
}

uint64_t fileBytes(const std::string &Path) {
  struct stat St{};
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

CpuTicks cpuTicks() {
  CpuTicks T;
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return T;
  unsigned long long V[8] = {0};
  if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                  &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
    T.Steal = V[7];
    for (unsigned long long X : V)
      T.Total += X;
  }
  std::fclose(F);
  return T;
}

double stealPct(const CpuTicks &A, const CpuTicks &B) {
  return B.Total > A.Total
             ? 100.0 * (B.Steal - A.Steal) / (B.Total - A.Total)
             : 0;
}

PinToCurrentCpu::PinToCurrentCpu() {
  cpu_set_t Old, One;
  int Cpu = sched_getcpu();
  if (Cpu < 0 || sched_getaffinity(0, sizeof(Old), &Old) != 0)
    return;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  if (sched_setaffinity(0, sizeof(One), &One) == 0)
    Saved.assign(reinterpret_cast<unsigned char *>(&Old),
                 reinterpret_cast<unsigned char *>(&Old) + sizeof(Old));
}

PinToCurrentCpu::~PinToCurrentCpu() {
  if (!Saved.empty())
    sched_setaffinity(0, sizeof(cpu_set_t),
                      reinterpret_cast<cpu_set_t *>(Saved.data()));
}

bool pinProcess(int Pid, unsigned Cpu) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/task";
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return false;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  bool Ok = true;
  while (dirent *E = readdir(D))
    if (E->d_name[0] != '.')
      Ok &= sched_setaffinity(std::atoi(E->d_name), sizeof(One), &One) == 0;
  closedir(D);
  return Ok;
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void addEndToEnd(RunResult &R, double SetupS, double PairsPerS, double P50Ms,
                 double P99Ms, size_t Samples, uint64_t Validated,
                 uint64_t Considered, double RssMb) {
  R.add("setup_s", "s", SetupS);
  R.add("pairs_per_s", "1/s", PairsPerS);
  R.add("latency_ms_p50", "ms", P50Ms);
  R.add("latency_ms_p99", "ms", P99Ms);
  R.add("validated_pct", "%",
        Considered ? 100.0 * Validated / Considered : 0.0);
  R.add("peak_rss_mb", "MB", RssMb);
  R.info("latency_samples", "count", static_cast<double>(Samples));
}

} // namespace perfbench
