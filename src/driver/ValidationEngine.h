//===- ValidationEngine.h - Parallel batch validation -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch validation subsystem and the repo's one `llvm-md` driver (the
/// paper's §2 loop: optimize, validate every function pair, revert what
/// fails). Where `validatePair` proves one function pair, the
/// ValidationEngine owns throughput: it optimizes a module, schedules every
/// independent (original, optimized) pair across a work-stealing thread
/// pool, skips structurally identical pairs in O(1) via function
/// fingerprints, memoizes verdicts across submissions, and aggregates a
/// deterministic ValidationReport regardless of thread count.
///
/// Two granularities are supported:
///  * WholePipeline — one pair per function, original vs fully optimized
///    (the paper's Figure 4 experiment);
///  * PerPass — the function is snapshotted after every pass that changes
///    it and each consecutive snapshot pair is validated, so a failure is
///    attributed to the specific guilty pass.
///
/// Both phases run on the pool. The *optimization* phase parallelizes per
/// function: every optimizer task runs the caller's one PassManager, which
/// no run writes (passes keep no state between runs), and interns
/// constants through the lock-striped Context concurrently. The
/// *validation* phase parallelizes per pair. Scheduling, cache interaction
/// and report aggregation stay sequential and in deterministic submission
/// order, so reports are byte-identical for any thread count.
///
/// `runSuite` shards the engine over a whole suite of modules: every
/// (module, function) optimize task and every validation pair is scheduled
/// on the one shared pool, the verdict cache deduplicates across modules,
/// and the result is one ValidationReport per module plus a suite roll-up.
///
/// A ValidationEngine instance must not be used from multiple threads at
/// once, but may be reused across many runs to exploit its verdict cache.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_VALIDATIONENGINE_H
#define LLVMMD_DRIVER_VALIDATIONENGINE_H

#include "driver/Report.h"
#include "driver/ThreadPool.h"
#include "driver/VerdictStore.h"
#include "normalize/Rules.h"
#include "triage/Triage.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace llvmmd {

class Function;
class Module;
class PassManager;

enum class ValidationGranularity : uint8_t {
  WholePipeline, ///< one validation per transformed function
  PerPass,       ///< snapshot + validate after every changing pass
};

struct EngineConfig {
  /// Worker threads for both phases; 0 = one per hardware thread.
  unsigned Threads = 0;
  /// Rule sets and fixpoint budget. Rules.M is set by the engine to the
  /// original module of each run.
  RuleConfig Rules;
  ValidationGranularity Granularity = ValidationGranularity::WholePipeline;
  /// Memoize verdicts by (fingerprint, fingerprint, rule) key across
  /// submissions to the same engine.
  bool UseCache = true;
  /// Restore the last certified body when a validation fails: the original
  /// in whole-pipeline mode, the last validated snapshot in stepwise mode
  /// (the paper's `replace fo by fi in output`).
  bool RevertFailures = false;
  /// Path of the persistent verdict store (VerdictStore format). Empty
  /// keeps the cache in-memory only.
  std::string CachePath;
  /// With CachePath set: open the store at construction and replay its
  /// verdicts on lookup. A store whose magic/version/config digest
  /// mismatches is rejected and the run starts cold (the store will be
  /// rebuilt on save).
  bool CacheLoad = true;
  /// With CachePath set: save the cache back (atomically, merging the
  /// current on-disk contents) after every run that memoized new verdicts.
  bool CacheSave = true;
  /// Alarm triage (src/triage/): with Triage.Enabled, every rejected pair
  /// is post-processed on the shared pool — differential witness search,
  /// delta reduction, rule-gap attribution — and the TriageResult lands in
  /// the function's report entry. Deterministic across thread counts.
  TriageOptions Triage;
};

struct EngineCacheStats {
  uint64_t Hits = 0;   ///< verdicts replayed (cache, store or batch dedup)
  /// The subset of Hits read from the persistent store ("warm"); Hits -
  /// WarmHits were proven by this process ("cold" in-memory hits and
  /// in-batch duplicates).
  uint64_t WarmHits = 0;
  uint64_t Misses = 0; ///< pairs validated from scratch
  uint64_t SkippedIdentical = 0; ///< fingerprint-equal pairs, skipped O(1)
  uint64_t Entries = 0; ///< verdicts this engine proved and memoized
  /// Verdict entries in the store opened at construction (its index total);
  /// they are read lazily, per shard, on lookup.
  uint64_t StoreLoaded = 0;
  uint64_t StoreSaved = 0; ///< entries written by the most recent save
  /// Triage replay accounting, mirroring the verdict fields: rejected pairs
  /// whose TriageResult was replayed (TriageHits; TriageWarmHits of those
  /// came from the persistent store) vs re-interpreted from scratch
  /// (TriageMisses).
  uint64_t TriageHits = 0;
  uint64_t TriageWarmHits = 0;
  uint64_t TriageMisses = 0;
  uint64_t TriageStoreLoaded = 0; ///< triage entries in the opened store
  /// Phase wall-time accounting, accumulated across runs (microseconds).
  /// Telemetry only — these numbers never feed verdict-bearing report
  /// fields (suite JSON exposes them solely behind IncludeTiming).
  uint64_t OptimizeMicroseconds = 0;  ///< phase 1: optimize + fingerprint
  uint64_t ValidateMicroseconds = 0;  ///< batch pair validation
  uint64_t StepwiseMicroseconds = 0;  ///< stepwise synthesis + attribution
  uint64_t TriageMicroseconds = 0;    ///< differential/reduce/attribute
  uint64_t RevertMicroseconds = 0;    ///< failure revert re-cloning
  uint64_t StoreLoadMicroseconds = 0; ///< verdict store open
  uint64_t StoreSaveMicroseconds = 0; ///< verdict store checkpoint/save
  /// Per-pass optimize wall time (pass name → accumulated microseconds),
  /// populated in stepwise granularity where passes run individually; the
  /// whole-pipeline path accounts under OptimizeMicroseconds only.
  std::vector<std::pair<std::string, uint64_t>> PassMicroseconds;
};

/// The result of one engine run: the certified optimized module (same
/// Context as the input) plus the full report.
struct EngineRun {
  std::unique_ptr<Module> Optimized;
  ValidationReport Report;
};

/// The result of one suite run: the certified optimized modules (same order
/// as the inputs, each in its input's Context) plus per-module reports and
/// the roll-up.
struct SuiteRun {
  std::vector<std::unique_ptr<Module>> Optimized;
  SuiteReport Report;
};

class ValidationEngine {
public:
  explicit ValidationEngine(EngineConfig Config = EngineConfig());
  ~ValidationEngine();

  ValidationEngine(const ValidationEngine &) = delete;
  ValidationEngine &operator=(const ValidationEngine &) = delete;

  /// Clones \p M, runs \p Pipeline (comma-separated pass names) on every
  /// defined function, and validates according to the configured
  /// granularity. Throws std::invalid_argument, with pipelineError's
  /// message, on an unknown pass.
  EngineRun run(const Module &M, const std::string &Pipeline);

  /// Same, over a caller-assembled pass manager (e.g. one containing
  /// passes that have no pipeline name).
  EngineRun run(const Module &M, const PassManager &PM);

  /// Validates a whole suite in one batch: every module is cloned and
  /// optimized with \p Pipeline, all (module, function) work is scheduled
  /// over the one shared pool, and verdicts deduplicate across modules
  /// through the cache. Modules may live in different Contexts. Reports are
  /// emitted per module (input order) plus a suite roll-up. Throws like
  /// run() on an unknown pass.
  SuiteRun runSuite(const std::vector<const Module *> &Modules,
                    const std::string &Pipeline);

  /// Validates two already-optimized modules pairwise: every defined
  /// function of \p Optimized against \p Original's function of the same
  /// name. No passes are run and nothing is reverted; "transformed" means
  /// the fingerprints differ.
  ValidationReport validateModules(const Module &Original,
                                   const Module &Optimized);

  /// Swaps the rule configuration for subsequent runs. Safe across runs:
  /// the verdict cache keys on (mask, fixpoint budget, and the globals the
  /// rules can read), so entries from other configurations can never be
  /// replayed.
  void setRules(const RuleConfig &Rules) { Cfg.Rules = Rules; }
  const RuleConfig &getRules() const { return Cfg.Rules; }

  const EngineCacheStats &cacheStats() const { return Stats; }
  /// Forgets every memoized verdict and closes the store: later runs start
  /// cold.
  void clearCache();
  unsigned getThreadCount() const { return Pool.getThreadCount(); }

  /// New verdicts or triage results were memoized since the last save.
  /// Lets callers that own the checkpoint cadence (the validation server's
  /// periodic checkpointer) skip rewriting an unchanged store.
  bool cacheDirty() const { return CacheDirty; }

  /// The VerdictStore header digest for the engine's current rule
  /// configuration (per-module globals are digested into entry keys, not
  /// here).
  uint64_t storeConfigDigest() const;

  /// Atomically saves the verdicts this engine proved to Cfg.CachePath,
  /// merging the current on-disk contents. Called automatically after
  /// every run that memoized new verdicts (when CachePath is set and
  /// CacheSave is on).
  bool saveCache(std::string *Error = nullptr);

private:
  /// Verdict cache keys are shared with the persistent store: both
  /// fingerprints plus a digest of everything else the verdict depends on
  /// (rule mask, fixpoint budget, and — when RS_GlobalFold can read
  /// initializers — the module's globals; fingerprints hash globals by name
  /// only, so the same pair in two modules may differ).
  using CacheKey = VerdictKey;
  using CacheKeyHash = VerdictKeyHash;

  /// A scheduled validation: a unique, uncached (original, optimized) pair
  /// of module \p Mod within the current batch.
  struct PairJob {
    const Function *A = nullptr;
    const Function *B = nullptr;
    unsigned Mod = 0;
    CacheKey Key;
    ValidationResult Result;
  };
  /// Where one job's verdict lands: module \p Mod, function \p Fn, step
  /// \p Step (-1 for the whole-pipeline slot). Duplicate pairs in a batch
  /// share a job and are marked as (deterministic) cache hits.
  struct Landing {
    unsigned Mod = 0;
    size_t Fn = 0;
    int Step = -1;
    size_t Job = 0;
    bool DuplicateHit = false;
  };

  /// Per-batch scheduling state (jobs, landings, duplicate tracking);
  /// defined in the implementation. One batch spans all modules of a suite.
  struct BatchState;
  /// Per-module optimization state (clone, snapshots, pending pairs);
  /// defined in the implementation.
  struct ModuleRunState;

  /// The CacheKey::Config value for validating against \p OrigModule under
  /// the current rule configuration.
  uint64_t cacheConfigDigest(const Module &OrigModule) const;

  /// Resolves the pair against the cache, the store and in-batch
  /// duplicates or appends a job; the verdict will land in module \p Mod's
  /// report at function \p Fn (step \p Step, or the whole-pipeline slot
  /// when \p Step is -1).
  void scheduleValidation(BatchState &B, unsigned Mod, uint64_t FpA,
                          uint64_t FpB, const Function *A,
                          const Function *OptF, size_t Fn, int Step);

  /// Validates every scheduled job in parallel, lands all verdicts into the
  /// per-module reports, and memoizes the new ones.
  void executeBatch(BatchState &B,
                    const std::vector<ValidationReport *> &Reports);

  /// One run's start, its phase wall times, and the engine counters when
  /// it began; defined in the implementation.
  struct RunClock;

  /// Binds \p S and \p R to the module pair (\p Orig, \p Opt) and adds the
  /// module's rules and cache digest to \p B.
  void initModule(ModuleRunState &S, BatchState &B, ValidationReport &R,
                  const Module &Orig, const Module &Opt,
                  const std::string &Pipeline, bool Stepwise);

  /// Optimizes, fingerprints and snapshots one function of one module;
  /// thread-safe against itself on other functions.
  void optimizeFunction(ModuleRunState &S, size_t Fi, const PassManager &PM);

  /// The engine core: run every module through optimize + validate as one
  /// batch over the pool, every optimizer task on \p PM.
  SuiteRun runModules(const std::vector<const Module *> &Modules,
                      const std::string &PipelineName, const PassManager &PM);

  /// The phases runModules and validateModules share: schedule every
  /// pending pair, validate the batch, synthesize stepwise verdicts (with
  /// \p Stepwise) and triage the rejected pairs.
  void validatePending(std::vector<ModuleRunState> &States, BatchState &B,
                       bool Stepwise, RunClock &Clock);

  /// Triages every rejected pair that has an original, replaying cached
  /// results and memoizing new ones.
  void triageRejected(std::vector<ModuleRunState> &States,
                      const BatchState &B);

  /// The end of every run: saves a dirty cache, then publishes the run's
  /// timings and counters (engine stats, \p SR's phase breakdown, the
  /// metrics registry).
  void finishRun(SuiteRun &SR, const RunClock &Clock);

  EngineConfig Cfg;
  ThreadPool Pool;
  /// Only verdicts and triage results this process proved; the store's
  /// entries are served by Store, never copied in.
  VerdictMap Cache;
  TriageMap TriageCache;
  /// The store at Cfg.CachePath, opened at construction; null when there
  /// is none, it was rejected, or the cache was cleared.
  std::unique_ptr<VerdictStoreReader> Store;
  EngineCacheStats Stats;
  /// New verdicts or triage results were memoized since the last save;
  /// gates save-on-report so replay-only runs don't rewrite an unchanged
  /// store.
  bool CacheDirty = false;
};

} // namespace llvmmd

#endif // LLVMMD_DRIVER_VALIDATIONENGINE_H
