//===- ValidationEngine.cpp - Parallel batch validation ------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"

#include "analysis/FunctionAnalyses.h"
#include "ir/Cloning.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "support/Log.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "validator/Validator.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

using namespace llvmmd;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

/// The verdict recorded for a pair whose fingerprints are equal: validated
/// without building a graph, the engine-level analogue of the §2 O(1) best
/// case.
ValidationResult identicalSkipResult() {
  ValidationResult R;
  R.Validated = true;
  R.EqualOnConstruction = true;
  return R;
}

uint64_t nowMicroseconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Wall-time of one engine phase; read once when the phase ends.
class PhaseTimer {
public:
  PhaseTimer() : Start(std::chrono::steady_clock::now()) {}
  uint64_t elapsedUs() const { return nowMicroseconds(Start); }

private:
  std::chrono::steady_clock::time_point Start;
};

/// Engine-level instruments in the process registry. Registered once;
/// the references are hot-path-safe (sharded counters).
struct EngineMetrics {
  Counter &PairsValidated;
  Counter &CacheHits;
  Counter &WarmHits;
  Counter &SkippedIdentical;
  Counter &TriageRuns;
  Histogram &RunUs;
};

EngineMetrics &engineMetrics() {
  static EngineMetrics M{
      telemetry().counter("llvmmd_engine_pairs_validated_total",
                          "Function pairs validated from scratch"),
      telemetry().counter("llvmmd_engine_cache_hits_total",
                          "Verdicts replayed from cache or in-batch dedup"),
      telemetry().counter("llvmmd_engine_warm_hits_total",
                          "Cache hits replayed from the persistent store"),
      telemetry().counter("llvmmd_engine_skipped_identical_total",
                          "Fingerprint-equal pairs skipped O(1)"),
      telemetry().counter("llvmmd_engine_triage_runs_total",
                          "Rejected pairs triaged from scratch"),
      telemetry().histogram("llvmmd_engine_run_us",
                            "End-to-end engine run wall time (microseconds)",
                            defaultLatencyBoundsMicros()),
  };
  return M;
}

/// Merges per-pass wall-time deltas into the accumulated
/// EngineCacheStats breakdown, keyed by pass name.
void accumulatePassTime(std::vector<std::pair<std::string, uint64_t>> &Into,
                        const std::string &Pass, uint64_t Us) {
  for (auto &KV : Into)
    if (KV.first == Pass) {
      KV.second += Us;
      return;
    }
  Into.emplace_back(Pass, Us);
}

} // namespace

uint64_t ValidationEngine::cacheConfigDigest(const Module &OrigModule) const {
  uint64_t H = hashCombine(Cfg.Rules.Mask, Cfg.Rules.MaxIterations);
  // Function fingerprints reference globals by name only; when the global-
  // folding rules can substitute initializers, verdicts additionally depend
  // on the module's global definitions.
  if (Cfg.Rules.Mask & RS_GlobalFold) {
    for (const auto &G : OrigModule.globals()) {
      H = hashCombine(H, hashString(G->getName()));
      H = hashCombine(H, G->isConstantGlobal());
      // The fold is gated on the global's value type matching the load.
      H = hashCombine(H, hashTypeShape(G->getValueType()));
      const Constant *Init = G->getInitializer();
      if (!Init) {
        H = hashCombine(H, 0x10);
      } else if (const auto *CI = dyn_cast<ConstantInt>(Init)) {
        H = hashCombine(H, 0x11);
        H = hashCombine(H, static_cast<uint64_t>(CI->getSExtValue()));
      } else if (const auto *CF = dyn_cast<ConstantFP>(Init)) {
        double D = CF->getValue();
        uint64_t Bits;
        std::memcpy(&Bits, &D, sizeof(Bits));
        H = hashCombine(hashCombine(H, 0x12), Bits);
      } else {
        H = hashCombine(H, static_cast<uint64_t>(Init->getKind()));
      }
    }
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Batch scheduling
//===----------------------------------------------------------------------===//

/// One batch spans every module of a run or suite: jobs from all modules
/// interleave freely on the pool, while landings record which module's
/// report each verdict belongs to.
struct ValidationEngine::BatchState {
  /// CacheKey::Config per module (rules + module digest).
  std::vector<uint64_t> ConfigDigests;
  /// Rule configuration per module (Rules.M bound to that module's
  /// original); read concurrently by validation jobs.
  std::vector<RuleConfig> ModuleRules;
  std::vector<PairJob> Jobs;
  std::vector<Landing> Landings;
  struct CachedLanding {
    unsigned Mod;
    size_t Fn;
    int Step;
    ValidationResult Result;
    /// Replayed from the persistent store (proven by a prior process).
    bool Warm = false;
  };
  std::vector<CachedLanding> Cached;
  /// Key -> job index, for pairs already scheduled in this batch. Duplicates
  /// share the job and land as cache hits deterministically, independent of
  /// the thread count; the key includes the config digest, so sharing across
  /// modules of a suite is sound.
  std::unordered_map<CacheKey, size_t, CacheKeyHash> Pending;
};

/// Everything the optimize phase produces for one module. Optimizer tasks
/// write only to per-function slots (report entries, snapshot modules,
/// pending-pair lists), so tasks across functions and modules never touch
/// the same memory.
struct ValidationEngine::ModuleRunState {
  const Module *Orig = nullptr;
  const Module *Opt = nullptr;
  bool Stepwise = false;
  /// Stepwise: shared per-pass wall-time accumulators (one slot per
  /// pipeline pass, owned by runModules). Concurrent optimize tasks
  /// fetch_add relaxed; read after the phase barrier.
  std::atomic<uint64_t> *PassTimesUs = nullptr;
  std::vector<Function *> Defined;
  /// The original of each function; null when it has none (only in
  /// validateModules).
  std::vector<const Function *> Origs;
  /// Stepwise: one snapshot module per function (same Context as the input)
  /// so concurrent tasks never append functions to a shared module. Alive
  /// until the revert phase has copied the certified bodies back.
  std::vector<std::unique_ptr<Module>> SnapshotModules;
  /// Per function: (pass index, snapshot) for every changing pass, so the
  /// revert phase can find the last certified body.
  std::vector<std::vector<std::pair<int, const Function *>>> SnapChains;
  /// Validation pairs discovered by the optimize phase, landed per function
  /// here and scheduled later in deterministic order.
  struct PendingPair {
    uint64_t FpA = 0, FpB = 0;
    const Function *A = nullptr;
    const Function *B = nullptr;
    int Step = -1;
  };
  std::vector<std::vector<PendingPair>> PerFn;
  ValidationReport *Report = nullptr;

  /// Whole-pipeline slot of function \p Fi, whose fingerprints are set:
  /// an identical pair is validated on the spot, any other is queued.
  void queueWholePair(size_t Fi, const Function *Opt) {
    FunctionReportEntry &E = Report->Functions[Fi];
    if (E.FingerprintOpt == E.FingerprintOrig) {
      E.SkippedIdentical = true;
      E.Validated = true;
      E.Result = identicalSkipResult();
      return;
    }
    PerFn[Fi].push_back(
        {E.FingerprintOrig, E.FingerprintOpt, Origs[Fi], Opt, -1});
  }
};

struct ValidationEngine::RunClock {
  explicit RunClock(const EngineCacheStats &S)
      : Misses(S.Misses), Hits(S.Hits), WarmHits(S.WarmHits),
        SkippedIdentical(S.SkippedIdentical), TriageMisses(S.TriageMisses) {}

  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  /// Engine counters when the run began; the metrics get the deltas.
  uint64_t Misses, Hits, WarmHits, SkippedIdentical, TriageMisses;
  uint64_t OptimizeUs = 0, ValidateUs = 0, StepwiseUs = 0, TriageUs = 0,
           RevertUs = 0;
};

ValidationEngine::ValidationEngine(EngineConfig Config)
    : Cfg(std::move(Config)), Pool(Cfg.Threads) {
  if (Cfg.CachePath.empty() || !Cfg.CacheLoad)
    return;
  PhaseTimer Timer;
  TraceSpan Span("store_load", "store", Cfg.CachePath);
  VerdictStore::LoadResult LR;
  Store = VerdictStoreReader::open(Cfg.CachePath, storeConfigDigest(), &LR);
  Stats.StoreLoadMicroseconds += Timer.elapsedUs();
  if (Store) {
    Stats.StoreLoaded = Store->verdictEntriesInFile();
    Stats.TriageStoreLoaded = Store->triageEntriesInFile();
  } else if (LR.Status != VerdictStore::LoadStatus::NoFile) {
    // Rejections (as opposed to a simply absent store) are safe — the
    // store will be rebuilt — but must be diagnosable: a silently-empty
    // cache surfaces later as a baffling sub-100% replay rate.
    logWarn("engine", "verdict store '" + Cfg.CachePath +
                          "' rejected, rebuilding: " + LR.Message);
  }
}

ValidationEngine::~ValidationEngine() = default;

void ValidationEngine::clearCache() {
  Cache.clear();
  TriageCache.clear();
  Store.reset();
  Stats.Entries = 0;
  CacheDirty = false;
}

uint64_t ValidationEngine::storeConfigDigest() const {
  return verdictStoreConfigDigest(Cfg.Rules);
}

bool ValidationEngine::saveCache(std::string *Error) {
  PhaseTimer Timer;
  TraceSpan Span("store_save", "store", Cfg.CachePath);
  std::string LocalError;
  uint64_t Written = VerdictStore::save(
      Cfg.CachePath, storeConfigDigest(), Cache, Error ? Error : &LocalError,
      /*MergeExisting=*/true, &TriageCache);
  if (Written == ~0ull) {
    // A swallowed save failure would resurface later as a baffling
    // "replay rate < 100%" on the next warm run; make the I/O error loud
    // even on the automatic save-on-report path.
    logWarn("engine",
            "verdict store not saved: " + (Error ? *Error : LocalError));
    Stats.StoreSaveMicroseconds += Timer.elapsedUs();
    return false;
  }
  Stats.StoreSaved = Written;
  Stats.StoreSaveMicroseconds += Timer.elapsedUs();
  CacheDirty = false;
  return true;
}

void ValidationEngine::scheduleValidation(BatchState &B, unsigned Mod,
                                          uint64_t FpA, uint64_t FpB,
                                          const Function *A,
                                          const Function *OptF, size_t Fn,
                                          int Step) {
  CacheKey Key{FpA, FpB, B.ConfigDigests[Mod]};
  if (Cfg.UseCache) {
    auto It = Cache.find(Key);
    bool Warm = It == Cache.end();
    const ValidationResult *Hit = !Warm ? &It->second
                                  : Store ? Store->lookup(Key)
                                          : nullptr;
    if (Hit) {
      B.Cached.push_back({Mod, Fn, Step, *Hit, Warm});
      ++Stats.Hits;
      Stats.WarmHits += Warm;
      return;
    }
  }
  auto [PIt, Inserted] = B.Pending.try_emplace(Key, B.Jobs.size());
  if (Inserted) {
    PairJob Job;
    Job.A = A;
    Job.B = OptF;
    Job.Mod = Mod;
    Job.Key = Key;
    B.Jobs.push_back(std::move(Job));
    B.Landings.push_back({Mod, Fn, Step, PIt->second, false});
  } else {
    B.Landings.push_back({Mod, Fn, Step, PIt->second, true});
    ++Stats.Hits;
  }
}

void ValidationEngine::executeBatch(
    BatchState &B, const std::vector<ValidationReport *> &Reports) {
  Pool.parallelFor(B.Jobs.size(), [&](size_t I) {
    PairJob &Job = B.Jobs[I];
    Job.Result = validatePair(*Job.A, *Job.B, B.ModuleRules[Job.Mod]);
  });
  Stats.Misses += B.Jobs.size();

  auto Land = [&](unsigned Mod, size_t Fn, int Step,
                  const ValidationResult &Verdict, bool Hit, bool Warm) {
    ValidationResult Res = Verdict;
    // A replayed verdict spent no time now; don't bill the original pair's
    // wall time to this run's aggregates.
    if (Hit)
      Res.Microseconds = 0;
    FunctionReportEntry &E = Reports[Mod]->Functions[Fn];
    if (Step < 0) {
      E.Result = Res;
      E.Validated = Res.Validated;
      E.CacheHit = Hit;
      E.WarmHit = Warm;
    } else {
      StepReport &S = E.Steps[static_cast<size_t>(Step)];
      S.Result = Res;
      S.Validated = Res.Validated;
      S.CacheHit = Hit;
      S.WarmHit = Warm;
    }
  };
  for (const auto &C : B.Cached)
    Land(C.Mod, C.Fn, C.Step, C.Result, true, C.Warm);
  for (const auto &L : B.Landings)
    Land(L.Mod, L.Fn, L.Step, B.Jobs[L.Job].Result, L.DuplicateHit, false);

  if (Cfg.UseCache) {
    for (const PairJob &Job : B.Jobs)
      Cache.emplace(Job.Key, Job.Result);
    Stats.Entries = Cache.size();
    CacheDirty |= !B.Jobs.empty();
  }
}

void ValidationEngine::triageRejected(std::vector<ModuleRunState> &States,
                                      const BatchState &B) {
  // Resolve the corpus bias once per module (mining walks every
  // instruction) and hand the resolved value to each triagePair via a
  // per-module options copy, instead of letting every pair re-mine the
  // module. The options digest folds the same bias in, so cached entries
  // can never replay across a bias change.
  std::vector<TriageOptions> ModOpts(States.size(), Cfg.Triage);
  std::vector<uint64_t> OptionDigests;
  OptionDigests.reserve(States.size());
  for (size_t Mi = 0; Mi < States.size(); ++Mi) {
    ModOpts[Mi].Bias = resolveCorpusBias(Cfg.Triage, *States[Mi].Orig);
    OptionDigests.push_back(triageOptionsDigest(Cfg.Triage, ModOpts[Mi].Bias));
  }
  // The options digest is part of the key, not just a validity stamp: two
  // modules sharing a rejected pair but mining different corpus biases
  // must hold separate entries, or they would evict each other every run
  // and never reach 100% triage replay.
  auto KeyOf = [&](unsigned Mi, const FunctionReportEntry &E) {
    return CacheKey{E.FingerprintOrig, E.FingerprintOpt,
                    hashCombine(B.ConfigDigests[Mi], OptionDigests[Mi])};
  };

  // Replay cached results; the rest become tasks in submission order.
  std::vector<std::pair<unsigned, size_t>> Tasks;
  for (size_t Mi = 0; Mi < States.size(); ++Mi) {
    ModuleRunState &S = States[Mi];
    for (size_t Fi = 0; Fi < S.Defined.size(); ++Fi) {
      FunctionReportEntry &E = S.Report->Functions[Fi];
      if (!E.Transformed || E.Validated || !S.Origs[Fi])
        continue;
      if (Cfg.UseCache) {
        CacheKey Key = KeyOf(Mi, E);
        auto It = TriageCache.find(Key);
        const StoredTriage *Hit = It != TriageCache.end() ? &It->second
                                  : Store ? Store->lookupTriage(Key)
                                          : nullptr;
        // Digest equality re-checked as defense in depth against a
        // hashCombine collision: a mismatched entry is inert, never wrong.
        if (Hit && Hit->OptionsDigest == OptionDigests[Mi]) {
          E.Triage = Hit->Result;
          ++Stats.TriageHits;
          Stats.TriageWarmHits += It == TriageCache.end();
          continue;
        }
      }
      Tasks.emplace_back(static_cast<unsigned>(Mi), Fi);
    }
  }

  Pool.parallelFor(Tasks.size(), [&](size_t I) {
    auto [Mi, Fi] = Tasks[I];
    ModuleRunState &S = States[Mi];
    TriagePair TP{S.Orig, S.Origs[Fi], S.Opt, S.Defined[Fi]};
    S.Report->Functions[Fi].Triage =
        triagePair(TP, B.ModuleRules[Mi], ModOpts[Mi]);
  });

  Stats.TriageMisses += Tasks.size();
  if (!Cfg.UseCache)
    return;
  for (auto [Mi, Fi] : Tasks) {
    const FunctionReportEntry &E = States[Mi].Report->Functions[Fi];
    TriageCache[KeyOf(Mi, E)] = StoredTriage{OptionDigests[Mi], E.Triage};
  }
  CacheDirty |= !Tasks.empty();
}

//===----------------------------------------------------------------------===//
// Optimize phase (one task per function, runs on the pool)
//===----------------------------------------------------------------------===//

void ValidationEngine::optimizeFunction(ModuleRunState &S, size_t Fi,
                                        const PassManager &PM) {
  Function *F = S.Defined[Fi];
  const Function *Orig = S.Origs[Fi];
  FunctionReportEntry &E = S.Report->Functions[Fi];
  E.Name = F->getName();
  E.FingerprintOrig = fingerprintFunction(*Orig);

  if (!S.Stepwise) {
    E.Transformed = PM.run(*F);
    if (!E.Transformed) {
      E.FingerprintOpt = E.FingerprintOrig;
      return;
    }
    E.FingerprintOpt = fingerprintFunction(*F);
    S.queueWholePair(Fi, F);
    return;
  }

  // Stepwise: run each pass individually, snapshotting after every one
  // that changes the function, and validate consecutive snapshots. The
  // passes share one analysis cache, as under PassManager::run.
  S.SnapshotModules[Fi] = std::make_unique<Module>(
      S.Orig->getContext(), F->getName() + ".snapshots");
  Module &Snapshots = *S.SnapshotModules[Fi];
  const Function *Prev = Orig;
  uint64_t PrevFp = E.FingerprintOrig;
  const auto &Passes = PM.passes();
  FunctionAnalyses FA;
  E.Steps.reserve(Passes.size());
  for (size_t Pi = 0; Pi < Passes.size(); ++Pi) {
    StepReport St;
    St.Pass = Passes[Pi]->getName();
    uint64_t PassStartUs = traceNowUs();
    PhaseTimer PassTimer;
    St.Changed = Passes[Pi]->run(*F, FA);
    if (S.PassTimesUs)
      S.PassTimesUs[Pi].fetch_add(PassTimer.elapsedUs(),
                                  std::memory_order_relaxed);
    if (traceEnabled())
      traceCompleteEvent("pass", "optimize", PassStartUs,
                         traceNowUs() - PassStartUs,
                         St.Pass + " @ " + F->getName());
    if (St.Changed) {
      E.Transformed = true;
      uint64_t Fp = fingerprintFunction(*F);
      St.Fingerprint = Fp;
      if (Fp == PrevFp) {
        St.SkippedIdentical = true;
        St.Validated = true;
        St.Result = identicalSkipResult();
      } else {
        Function *Snap = Snapshots.createFunction(
            F->getFunctionType(), F->getName() + ".s" + std::to_string(Pi));
        cloneFunctionBody(*F, *Snap);
        E.Steps.push_back(std::move(St));
        S.PerFn[Fi].push_back({PrevFp, Fp, Prev, Snap, static_cast<int>(Pi)});
        S.SnapChains[Fi].push_back({static_cast<int>(Pi), Snap});
        Prev = Snap;
        PrevFp = Fp;
        continue;
      }
    }
    E.Steps.push_back(std::move(St));
  }
  E.FingerprintOpt = PrevFp;
}

//===----------------------------------------------------------------------===//
// Module and suite runs
//===----------------------------------------------------------------------===//

namespace {

/// \p Pipeline as a pass manager. Throws on an unknown pass in every
/// build: a pipeline that ran nothing must not pass for a validated run.
PassManager parsedPipeline(const std::string &Pipeline) {
  PassManager PM;
  if (!PM.parsePipeline(Pipeline))
    throw std::invalid_argument(pipelineError(Pipeline));
  return PM;
}

} // namespace

EngineRun ValidationEngine::run(const Module &M, const std::string &Pipeline) {
  SuiteRun SR = runModules({&M}, Pipeline, parsedPipeline(Pipeline));
  EngineRun Run;
  Run.Optimized = std::move(SR.Optimized.front());
  Run.Report = std::move(SR.Report.Modules.front());
  return Run;
}

EngineRun ValidationEngine::run(const Module &M, const PassManager &PM) {
  std::string Name;
  for (const auto &P : PM.passes()) {
    if (!Name.empty())
      Name += ',';
    Name += P->getName();
  }
  SuiteRun SR = runModules({&M}, Name, PM);
  EngineRun Run;
  Run.Optimized = std::move(SR.Optimized.front());
  Run.Report = std::move(SR.Report.Modules.front());
  return Run;
}

SuiteRun ValidationEngine::runSuite(const std::vector<const Module *> &Modules,
                                    const std::string &Pipeline) {
  return runModules(Modules, Pipeline, parsedPipeline(Pipeline));
}

void ValidationEngine::initModule(ModuleRunState &S, BatchState &B,
                                  ValidationReport &R, const Module &Orig,
                                  const Module &Opt,
                                  const std::string &Pipeline,
                                  bool Stepwise) {
  R.ModuleName = Opt.getName();
  R.Pipeline = Pipeline;
  R.RuleMask = Cfg.Rules.Mask;
  R.Stepwise = Stepwise;
  R.Threads = Pool.getThreadCount();

  S.Orig = &Orig;
  S.Opt = &Opt;
  S.Stepwise = Stepwise;
  S.Report = &R;
  S.Defined = Opt.definedFunctions();
  S.Origs.resize(S.Defined.size());
  S.SnapshotModules.resize(S.Defined.size());
  S.SnapChains.resize(S.Defined.size());
  S.PerFn.resize(S.Defined.size());
  R.Functions.resize(S.Defined.size());

  RuleConfig MR = Cfg.Rules;
  MR.M = &Orig;
  B.ModuleRules.push_back(MR);
  B.ConfigDigests.push_back(cacheConfigDigest(Orig));
}

SuiteRun ValidationEngine::runModules(const std::vector<const Module *> &Mods,
                                      const std::string &PipelineName,
                                      const PassManager &PM) {
  RunClock Clock(Stats);
  const bool Stepwise = Cfg.Granularity == ValidationGranularity::PerPass;

  SuiteRun SR;
  SR.Report.Pipeline = PipelineName;
  SR.Report.RuleMask = Cfg.Rules.Mask;
  SR.Report.Stepwise = Stepwise;
  SR.Report.Threads = Pool.getThreadCount();
  SR.Report.Modules.resize(Mods.size());

  BatchState B;
  std::vector<ModuleRunState> States(Mods.size());
  for (size_t Mi = 0; Mi < Mods.size(); ++Mi) {
    SR.Optimized.push_back(cloneModule(*Mods[Mi]));
    ModuleRunState &S = States[Mi];
    initModule(S, B, SR.Report.Modules[Mi], *Mods[Mi], *SR.Optimized.back(),
               PipelineName, Stepwise);
    // cloneModule keeps the function order, so the clones pair with the
    // originals by position.
    std::vector<Function *> Origs = Mods[Mi]->definedFunctions();
    assert(Origs.size() == S.Defined.size() && "function lost in cloning");
    S.Origs.assign(Origs.begin(), Origs.end());
  }

  //===--------------------------------------------------------------------===//
  // Phase 1 (parallel): optimize, fingerprint, snapshot. Every (module,
  // function) task is independent: passes mutate only their function and
  // intern constants through the lock-striped Context, and every task runs
  // the one shared \p PM, which no run writes.
  //===--------------------------------------------------------------------===//

  std::vector<std::pair<size_t, size_t>> Tasks;
  for (size_t Mi = 0; Mi < States.size(); ++Mi)
    for (size_t Fi = 0; Fi < States[Mi].Defined.size(); ++Fi)
      Tasks.emplace_back(Mi, Fi);

  // Stepwise runs time each pass individually into these shared slots;
  // the whole-pipeline path accounts only the phase total below.
  std::vector<std::atomic<uint64_t>> PassTimesUs(Stepwise ? PM.size() : 0);
  if (Stepwise)
    for (ModuleRunState &S : States)
      S.PassTimesUs = PassTimesUs.data();

  {
    PhaseTimer Timer;
    TraceSpan Span("optimize", "engine");
    Pool.parallelFor(Tasks.size(), [&](size_t T) {
      optimizeFunction(States[Tasks[T].first], Tasks[T].second, PM);
    });
    Clock.OptimizeUs = Timer.elapsedUs();
  }

  // Phases 2-4: validate, stepwise synthesis, triage. Triage must precede
  // the revert phase, which overwrites the failing optimized bodies.
  validatePending(States, B, Stepwise, Clock);

  //===--------------------------------------------------------------------===//
  // Phase 5: revert failures. Targets are resolved sequentially; the
  // re-cloning runs one task per function on the pool.
  //===--------------------------------------------------------------------===//

  /// One revert task: re-clone the certified body \p Src over \p Dst.
  /// Targets are resolved sequentially; the cloning itself is scheduled per
  /// function on the pool (tasks touch disjoint functions and intern
  /// through the lock-striped Context, same argument as phase 1).
  struct RevertTask {
    const Function *Src = nullptr;
    Function *Dst = nullptr;
  };
  std::vector<RevertTask> Reverts;

  PhaseTimer RevertTimer;
  uint64_t RevertStartUs = traceNowUs();
  for (size_t Mi = 0; Mi < States.size(); ++Mi) {
    ModuleRunState &S = States[Mi];
    ValidationReport &R = *S.Report;

    if (Cfg.RevertFailures) {
      for (size_t Fi = 0; Fi < S.Defined.size(); ++Fi) {
        FunctionReportEntry &E = R.Functions[Fi];
        if (!E.Transformed || E.Validated)
          continue;
        // Whole-pipeline: back to the original. Stepwise: back to the last
        // snapshot certified before the guilty pass (the validated prefix of
        // the pipeline), or the original if the first change already failed.
        const Function *Target = S.Origs[Fi];
        if (Stepwise) {
          int Guilty = -1;
          for (size_t Si = 0; Si < E.Steps.size(); ++Si)
            if (E.Steps[Si].Changed && !E.Steps[Si].Validated) {
              Guilty = static_cast<int>(Si);
              break;
            }
          for (const auto &[StepIdx, Snap] : S.SnapChains[Fi])
            if (StepIdx < Guilty)
              Target = Snap;
        }
        Reverts.push_back({Target, S.Defined[Fi]});
        E.Reverted = true;
      }
    }
  }

  Pool.parallelFor(Reverts.size(), [&](size_t I) {
    replaceFunctionBody(*Reverts[I].Src, *Reverts[I].Dst);
  });
  Clock.RevertUs = RevertTimer.elapsedUs();
  if (traceEnabled())
    traceCompleteEvent("revert", "engine", RevertStartUs,
                       traceNowUs() - RevertStartUs);

  finishRun(SR, Clock);
  for (size_t Pi = 0; Pi < PassTimesUs.size(); ++Pi) {
    uint64_t Us = PassTimesUs[Pi].load(std::memory_order_relaxed);
    const std::string &Pass = PM.passes()[Pi]->getName();
    accumulatePassTime(Stats.PassMicroseconds, Pass, Us);
    SR.Report.PhaseMicroseconds.emplace_back("pass:" + Pass, Us);
  }
  return SR;
}

void ValidationEngine::validatePending(std::vector<ModuleRunState> &States,
                                       BatchState &B, bool Stepwise,
                                       RunClock &Clock) {
  //===--------------------------------------------------------------------===//
  // Phase 2 (sequential, deterministic order): account skips, resolve the
  // cache, deduplicate pairs, then validate the batch in parallel.
  //===--------------------------------------------------------------------===//

  std::vector<ValidationReport *> Reports;
  Reports.reserve(States.size());
  for (size_t Mi = 0; Mi < States.size(); ++Mi) {
    ModuleRunState &S = States[Mi];
    Reports.push_back(S.Report);
    for (size_t Fi = 0; Fi < S.Defined.size(); ++Fi) {
      const FunctionReportEntry &E = S.Report->Functions[Fi];
      Stats.SkippedIdentical += E.SkippedIdentical;
      for (const StepReport &St : E.Steps)
        Stats.SkippedIdentical += St.SkippedIdentical;
      for (const ModuleRunState::PendingPair &P : S.PerFn[Fi])
        scheduleValidation(B, static_cast<unsigned>(Mi), P.FpA, P.FpB, P.A,
                           P.B, Fi, P.Step);
    }
  }

  {
    PhaseTimer Timer;
    TraceSpan Span("validate", "engine",
                   std::to_string(B.Jobs.size()) + " pairs");
    executeBatch(B, Reports);
    Clock.ValidateUs = Timer.elapsedUs();
  }

  //===--------------------------------------------------------------------===//
  // Phase 3 (sequential): synthesize stepwise verdicts and attribute guilt.
  //===--------------------------------------------------------------------===//

  if (Stepwise) {
    PhaseTimer Timer;
    TraceSpan Span("stepwise_synthesis", "engine");
    for (ValidationReport *R : Reports) {
      for (FunctionReportEntry &E : R->Functions) {
        if (!E.Transformed)
          continue;
        ValidationResult Sum;
        Sum.Validated = true;
        for (const StepReport &St : E.Steps) {
          if (!St.Changed)
            continue;
          Sum.Rewrites += St.Result.Rewrites;
          Sum.SharingMerges += St.Result.SharingMerges;
          Sum.GraphNodes += St.Result.GraphNodes;
          Sum.LiveNodes = St.Result.LiveNodes;
          Sum.Iterations += St.Result.Iterations;
          Sum.Microseconds += St.Result.Microseconds;
          if (!St.Validated && Sum.Validated) {
            Sum.Validated = false;
            Sum.Unsupported = St.Result.Unsupported;
            Sum.Reason = "step '" + St.Pass + "': " +
                         (St.Result.Reason.empty() ? "alarm" : St.Result.Reason);
            E.GuiltyPass = St.Pass;
          }
        }
        E.Validated = Sum.Validated;
        E.Result = std::move(Sum);
      }
    }
    Clock.StepwiseUs = Timer.elapsedUs();
  }

  //===--------------------------------------------------------------------===//
  // Phase 4 (parallel): triage every rejected pair. Tasks are collected in
  // deterministic submission order and each writes only its own report
  // entry; triagePair itself is a pure function of the pair and the
  // configuration, so reports stay byte-identical for any thread count.
  // Scratch modules intern through the lock-striped Context, the same
  // isolation argument as the optimize phase.
  //===--------------------------------------------------------------------===//

  if (Cfg.Triage.Enabled) {
    PhaseTimer Timer;
    TraceSpan Span("triage", "engine");
    triageRejected(States, B);
    Clock.TriageUs = Timer.elapsedUs();
  }
}

void ValidationEngine::finishRun(SuiteRun &SR, const RunClock &Clock) {
  uint64_t StoreSaveBeforeUs = Stats.StoreSaveMicroseconds;
  if (!Cfg.CachePath.empty() && Cfg.CacheSave && CacheDirty)
    saveCache();

  SR.Report.WallMicroseconds = nowMicroseconds(Clock.Start);
  // Suite phases interleave across modules on one pool, so end-to-end wall
  // time is not attributable per module; only a single-module run owns it.
  // (Per-module validationMicroseconds() remains meaningful either way.)
  if (SR.Report.Modules.size() == 1)
    SR.Report.Modules.front().WallMicroseconds = SR.Report.WallMicroseconds;

  // Telemetry epilogue: accumulate phase wall times into the engine stats,
  // publish this run's breakdown on the report (emitters expose it only
  // behind IncludeTiming), and feed the process metrics registry. None of
  // this touches verdict-bearing fields.
  Stats.OptimizeMicroseconds += Clock.OptimizeUs;
  Stats.ValidateMicroseconds += Clock.ValidateUs;
  Stats.StepwiseMicroseconds += Clock.StepwiseUs;
  Stats.TriageMicroseconds += Clock.TriageUs;
  Stats.RevertMicroseconds += Clock.RevertUs;
  SR.Report.PhaseMicroseconds = {
      {"optimize", Clock.OptimizeUs},
      {"validate", Clock.ValidateUs},
      {"stepwise_synthesis", Clock.StepwiseUs},
      {"triage", Clock.TriageUs},
      {"revert", Clock.RevertUs},
      {"store_save", Stats.StoreSaveMicroseconds - StoreSaveBeforeUs},
  };

  EngineMetrics &EM = engineMetrics();
  EM.PairsValidated.add(Stats.Misses - Clock.Misses);
  EM.CacheHits.add(Stats.Hits - Clock.Hits);
  EM.WarmHits.add(Stats.WarmHits - Clock.WarmHits);
  EM.SkippedIdentical.add(Stats.SkippedIdentical - Clock.SkippedIdentical);
  EM.TriageRuns.add(Stats.TriageMisses - Clock.TriageMisses);
  EM.RunUs.observe(SR.Report.WallMicroseconds);
}

ValidationReport ValidationEngine::validateModules(const Module &Original,
                                                   const Module &Optimized) {
  RunClock Clock(Stats);
  SuiteRun SR;
  SR.Report.Modules.resize(1);
  BatchState B;
  std::vector<ModuleRunState> States(1);
  ModuleRunState &S = States.front();
  initModule(S, B, SR.Report.Modules.front(), Original, Optimized,
             "(external)", /*Stepwise=*/false);

  for (size_t Fi = 0; Fi < S.Defined.size(); ++Fi) {
    const Function *F = S.Defined[Fi];
    const Function *Orig = Original.getFunction(F->getName());
    FunctionReportEntry &E = S.Report->Functions[Fi];
    E.Name = F->getName();
    E.FingerprintOpt = fingerprintFunction(*F);
    if (!Orig || Orig->isDeclaration()) {
      E.Transformed = true;
      E.Result.Unsupported = true;
      E.Result.Reason = "no original function of this name";
      continue;
    }
    S.Origs[Fi] = Orig;
    E.FingerprintOrig = fingerprintFunction(*Orig);
    E.Transformed = E.FingerprintOrig != E.FingerprintOpt;
    S.queueWholePair(Fi, F);
  }

  validatePending(States, B, /*Stepwise=*/false, Clock);
  finishRun(SR, Clock);
  return std::move(SR.Report.Modules.front());
}
