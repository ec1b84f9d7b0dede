//===- ColdPairs.cpp - Closed-loop validatePair over the suite ------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// One caller runs validatePair(orig, opt, RS_Paper) over every pair of the
// suite in a fixed order, pass after pass, until the run time is spent.
// Optimization and bug planting happen in set-up, so the timed loop is the
// validator core alone: gating, value-graph construction, normalization.
// Every pass must reproduce the first pass's verdicts, the engine must agree
// with them, and no planted bug may validate.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "driver/ValidationEngine.h"

#include <atomic>
#include <map>
#include <thread>

using namespace llvmmd;

namespace perfbench {

namespace {

constexpr unsigned BugsPerModule = 2;

RuleConfig rulesFor(const Suite &S, const Pair &P) {
  RuleConfig RC; // RS_Paper, the 32-round budget, Combined sharing
  RC.M = S.Orig[P.Module].get();
  return RC;
}

/// The engine's own verdicts on the same modules must agree with the first
/// pass, pair by pair (the engine pairs functions by name itself). Modules
/// are checked in parallel, one single-threaded engine each.
void checkAgainstEngine(const Suite &S, const std::vector<uint64_t> &First,
                        RunResult &R) {
  std::vector<ValidationReport> Reps(S.Orig.size());
  std::atomic<unsigned> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < std::max(1u, std::thread::hardware_concurrency());
       ++W)
    Workers.emplace_back([&] {
      EngineConfig C;
      C.Threads = 1;
      C.UseCache = false;
      ValidationEngine E(C);
      for (unsigned M; (M = Next.fetch_add(1)) < S.Orig.size();)
        Reps[M] = E.validateModules(*S.Orig[M], *S.Opt[M]);
    });
  for (std::thread &W : Workers)
    W.join();

  for (unsigned M = 0; M < S.Orig.size(); ++M) {
    std::map<std::string, size_t> Want;
    for (size_t I = 0; I < S.Pairs.size(); ++I)
      if (S.Pairs[I].Module == M && !S.Pairs[I].Bug)
        Want[S.Pairs[I].Orig->getName()] = I;
    size_t Seen = 0;
    for (const FunctionReportEntry &F : Reps[M].Functions) {
      if (!F.Transformed)
        continue;
      ++Seen;
      auto It = Want.find(F.Name);
      if (It == Want.end() || verdictDigest(F.Result) != First[It->second])
        R.fail("engine verdict differs for " + F.Name);
    }
    if (Seen != Want.size())
      R.fail("engine saw " + std::to_string(Seen) + " transformed pairs in " +
             S.Orig[M]->getName() + ", the benchmark " +
             std::to_string(Want.size()));
  }
}

} // namespace

void runColdPairs(const Options &O, RunResult &R) {
  double SetupS = 0;
  std::unique_ptr<Suite> S = medianSetup(O.SetupRepeats, SetupS, [&] {
    auto New = std::make_unique<Suite>();
    generateSuite(*New, O.SuiteSeed);
    optimizeSuite(*New);
    plantBugs(*New, O.Seed, BugsPerModule);
    return New;
  });

  // The timed passes cover the suite's own pairs, identical for every seed;
  // the seeded bug pairs are checked once, after the clock stops.
  std::vector<uint64_t> First(S->Pairs.size());
  std::vector<double> Lat;
  uint64_t Validated = 0, Considered = 0;
  unsigned Passes = 0;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = threadCpuSeconds();
  do {
    for (size_t I = 0; I < S->Pairs.size(); ++I) {
      const Pair &P = S->Pairs[I];
      if (P.Bug)
        continue;
      RuleConfig RC = rulesFor(*S, P);
      Clock::time_point A = Clock::now();
      ValidationResult V = validatePair(*P.Orig, *P.Opt, RC);
      Lat.push_back(msBetween(A, Clock::now()));
      ++R.Attempted;
      ++Considered;
      Validated += V.Validated;
      uint64_t D = verdictDigest(V);
      if (Passes == 0)
        First[I] = D;
      else if (D != First[I])
        R.fail("verdict of " + P.Orig->getName() + " changed in pass " +
               std::to_string(Passes));
    }
    ++Passes;
  } while (secondsSince(T0) < O.Seconds);
  double Wall = secondsSince(T0);
  double Cpu = threadCpuSeconds() - Cpu0;
  double Rss = peakRssMb();

  for (const Pair &P : S->Pairs) {
    if (!P.Bug)
      continue;
    ++R.Attempted;
    if (validatePair(*P.Orig, *P.Opt, rulesFor(*S, P)).Validated)
      R.fail("planted bug validated: " + P.Opt->getName());
  }
  checkAgainstEngine(*S, First, R);

  addEndToEnd(R, SetupS, Lat.size() / Wall, percentile(Lat, 50),
              percentile(Lat, 99), Lat.size(), Validated, Considered, Rss);
  R.info("host.wall_per_cpu", "ratio", Cpu > 0 ? Wall / Cpu : 0);
  R.info("passes", "count", Passes);
  R.info("suite.functions", "count", S->Functions);
  R.info("suite.pairs", "count", S->Pairs.size() - S->Bugs);
  R.info("suite.bug_pairs", "count", S->Bugs);
}

} // namespace perfbench
