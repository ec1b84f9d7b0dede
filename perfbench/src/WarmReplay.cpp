//===- WarmReplay.cpp - Closed-loop warm jobs against a large store -------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Each job is a fresh single-threaded ValidationEngine that loads the
// verdict store and replays one module of the suite; the 12 modules cycle
// in a fixed order (the smallest twice per cycle). Set-up proves every
// verdict into the store, next to a seeded filler of verdicts for other
// modules, so the store is much larger than one job's working set. The
// validator itself is bypassed: the job is the optimizer, fingerprinting,
// and the store's read path.
//
//===----------------------------------------------------------------------===//

#include "Warm.h"

#include "driver/Report.h"
#include "driver/ValidationEngine.h"
#include "opt/Pass.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>

using namespace llvmmd;

namespace perfbench {

std::string reportDigest(const ValidationReport &Rep) {
  std::string Out;
  for (const FunctionReportEntry &F : Rep.Functions)
    Out += stripProvenance(functionEntryToJSON(F)) + "\n";
  return Out;
}

EngineConfig warmJobConfig(const std::string &Store) {
  EngineConfig C;
  C.Threads = 1;
  C.CachePath = Store;
  C.CacheLoad = true;
  C.CacheSave = false;
  return C;
}

std::unique_ptr<WarmState> buildWarmState(const Options &O) {
  auto W = std::make_unique<WarmState>();
  W->Store = O.WorkDir + "/warm.vstore";
  std::remove(W->Store.c_str());
  generateSuite(W->S, O.SuiteSeed);

  // The filler: verdicts for modules no job replays, under this rule
  // configuration, so a job's loader reads and merges all of them.
  VerdictMap Filler;
  Rng R(hashCombine(O.Seed, 0xf111e7));
  for (unsigned I = 0; I < WarmFillerEntries; ++I) {
    VerdictKey K{R.next(), R.next(), R.next()};
    ValidationResult V;
    V.Validated = R.below(4) != 0;
    V.Reason = V.Validated ? "" : "graphs did not merge";
    V.GraphNodes = 20 + R.below(2000);
    V.LiveNodes = V.GraphNodes / 2;
    V.Rewrites = R.below(200);
    V.SharingMerges = R.below(100);
    V.Iterations = 1 + R.below(4);
    Filler.emplace(K, V);
  }
  std::string Err;
  uint64_t Digest = verdictStoreConfigDigest(RuleConfig());
  VerdictStore::save(W->Store, Digest, Filler, &Err, /*MergeExisting=*/false);

  // The proving run is single-threaded and pinned like the timed jobs: on
  // every CPU its time followed whichever CPU the host slowed most.
  PinToCurrentCpu Pin;
  EngineConfig C;
  C.Threads = 1;
  C.CachePath = W->Store;
  ValidationEngine E(C);
  std::vector<const Module *> Mods;
  for (const auto &M : W->S.Orig)
    Mods.push_back(M.get());
  SuiteRun SR = E.runSuite(Mods, getPaperPipeline());
  for (const ValidationReport &Rep : SR.Report.Modules)
    W->Reference.push_back(reportDigest(Rep));
  return W;
}

void runWarmReplay(const Options &O, RunResult &R) {
  double SetupS = 0;
  std::unique_ptr<WarmState> W =
      medianSetup(O.SetupRepeats, SetupS, [&] { return buildWarmState(O); });

  const std::string Pipeline = getPaperPipeline();
  std::vector<double> Lat;
  uint64_t Pairs = 0, Distinct = 0, Validated = 0;
  // Each job's engine threads inherit the pin, so a job's hand-offs
  // between caller and pool thread stay on one CPU.
  PinToCurrentCpu Pin;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = threadCpuSeconds();
  // The cycle visits every module once and the smallest twice: with an
  // odd cycle the median job falls inside one module's jobs instead of in
  // the gap between two module sizes. Runs end on whole cycles, so every
  // run replays the same mix.
  std::vector<unsigned> Cycle(W->S.Orig.size());
  for (unsigned M = 0; M < Cycle.size(); ++M)
    Cycle[M] = M;
  Cycle.push_back(*std::min_element(
      Cycle.begin(), Cycle.end(), [&](unsigned A, unsigned B) {
        return W->S.Orig[A]->definedFunctions().size() <
               W->S.Orig[B]->definedFunctions().size();
      }));
  for (size_t Job = 0; Job % Cycle.size() != 0 || secondsSince(T0) < O.Seconds;
       ++Job) {
    unsigned M = Cycle[Job % Cycle.size()];
    Clock::time_point A = Clock::now();
    ValidationReport Rep;
    EngineCacheStats St;
    {
      ValidationEngine E(warmJobConfig(W->Store));
      Rep = std::move(E.run(*W->S.Orig[M], Pipeline).Report);
      St = E.cacheStats();
    }
    Lat.push_back(msBetween(A, Clock::now()));
    ++R.Attempted;
    Pairs += Rep.transformed();
    // validated_pct counts each module once per cycle, like the suite.
    if (Job % Cycle.size() < W->S.Orig.size()) {
      Distinct += Rep.transformed();
      Validated += Rep.validated();
    }
    if (St.Misses != 0)
      R.fail("warm job on " + Rep.ModuleName + " re-proved " +
             std::to_string(St.Misses) + " pairs");
    else if (reportDigest(Rep) != W->Reference[M])
      R.fail("warm job on " + Rep.ModuleName + " disagrees with set-up");
  }
  double Wall = secondsSince(T0);
  double Cpu = threadCpuSeconds() - Cpu0;

  addEndToEnd(R, SetupS, Pairs / Wall, percentile(Lat, 50),
              percentile(Lat, 99), Lat.size(), Validated, Distinct,
              peakRssMb());
  R.info("host.wall_per_cpu", "ratio", Cpu > 0 ? Wall / Cpu : 0);
  R.info("store.bytes", "B", static_cast<double>(fileBytes(W->Store)));
  std::remove(W->Store.c_str());
}

} // namespace perfbench
