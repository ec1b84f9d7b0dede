//===- Report.h - Validation engine reports ---------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-facing output of the validation engine: one entry per
/// function (with per-pass steps in stepwise mode), plus emitters for human
/// text, CSV, and JSON (the `BENCH_*.json` shape).
///
/// Everything in the report except wall-clock fields is a pure function of
/// the input module, pipeline, and rule configuration — independent of the
/// engine's thread count. The JSON emitter therefore omits timing by
/// default, which is what makes `--threads 1` and `--threads 8` reports
/// byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_REPORT_H
#define LLVMMD_DRIVER_REPORT_H

#include "triage/Triage.h"
#include "validator/Validator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace llvmmd {

/// One optimization step of one function (stepwise granularity only).
struct StepReport {
  std::string Pass;
  bool Changed = false;   ///< did the pass report transforming the function?
  bool Validated = false; ///< meaningful only when Changed
  /// The verdict was replayed from the memo cache (or a duplicate pair
  /// earlier in the same batch) instead of being validated from scratch.
  bool CacheHit = false;
  /// The replayed verdict came from the persistent verdict store, i.e. was
  /// proven by a *prior process* (warm); a cache hit without this flag was
  /// proven earlier in this process (cold).
  bool WarmHit = false;
  /// The pass claimed a change but the fingerprint is unchanged; validated
  /// in O(1) without building a graph.
  bool SkippedIdentical = false;
  uint64_t Fingerprint = 0; ///< function fingerprint after this step
  ValidationResult Result;
};

/// Per-function outcome.
struct FunctionReportEntry {
  std::string Name;
  uint64_t FingerprintOrig = 0;
  uint64_t FingerprintOpt = 0;
  bool Transformed = false;
  bool Validated = false;
  bool CacheHit = false;
  bool WarmHit = false; ///< see StepReport::WarmHit
  bool SkippedIdentical = false;
  bool Reverted = false;
  /// Stepwise mode: the first pass whose step failed to validate; empty when
  /// every step validated (or in whole-pipeline mode).
  std::string GuiltyPass;
  /// Whole-pipeline verdict. In stepwise mode this is synthesized: Validated
  /// iff every changed step validated, statistics summed over the steps.
  ValidationResult Result;
  std::vector<StepReport> Steps; ///< populated only in stepwise mode
  /// Alarm triage for rejected pairs (Classification == NotRun when the
  /// function validated or the engine's triage phase is disabled).
  TriageResult Triage;
};

/// One function an ingest frontend refused to import (it exists in the
/// module only as a declaration). Reason is the frontend's named reject
/// class (e.g. "vector-type", "indirect-call"); Detail names the concrete
/// construct.
struct UnsupportedFunctionEntry {
  std::string Function;
  std::string Reason;
  std::string Detail;
};

struct ValidationReport {
  std::string ModuleName;
  std::string Pipeline;
  unsigned RuleMask = 0;
  bool Stepwise = false;
  unsigned Threads = 1;
  uint64_t WallMicroseconds = 0; ///< end-to-end engine wall time
  std::vector<FunctionReportEntry> Functions; ///< in module order
  /// Functions the module reader rejected, in textual order (always empty
  /// for generated modules).
  std::vector<UnsupportedFunctionEntry> UnsupportedFunctions;

  // Aggregates (derived, always consistent with Functions).
  unsigned total() const;
  unsigned transformed() const;
  unsigned validated() const;
  unsigned reverted() const;
  unsigned cacheHits() const;
  /// The subset of cacheHits() replayed from the persistent verdict store
  /// (proven by a prior process). cacheHits() - warmHits() are cold
  /// in-process replays.
  unsigned warmHits() const;
  unsigned skippedIdentical() const;
  /// Number of frontend-rejected functions (UnsupportedFunctions.size()).
  unsigned unsupportedFunctions() const;
  /// Triage roll-ups: rejected pairs with a concrete interpreter witness /
  /// classified suspected-false-alarm (both 0 when triage is off).
  unsigned witnessed() const;
  unsigned suspectedFalseAlarms() const;
  /// The paper's "which extension rule pays most" table at module scale:
  /// (rule name, alarm count) over the triaged false alarms, counting each
  /// function's attributed missing rule ("(combined)" when only the full
  /// extension set closes the gap). Sorted by count descending, name
  /// ascending — deterministic for any thread count. Empty when triage was
  /// off or attributed nothing.
  std::vector<std::pair<std::string, unsigned>> missingRuleCounts() const;
  uint64_t rewrites() const;
  uint64_t graphNodes() const;
  /// Sum of per-pair validation wall times (CPU-ish time; exceeds
  /// WallMicroseconds when validation ran in parallel).
  uint64_t validationMicroseconds() const;
  /// The paper's metric: validated / transformed (1.0 when nothing was
  /// transformed).
  double validationRate() const;
};

/// Human-readable report: summary header, one line per function, failures
/// annotated with the guilty pass / reason.
std::string reportToText(const ValidationReport &R);

/// CSV: a header row plus one row per function (steps are flattened into
/// extra rows in stepwise mode, marked by the `pass` column).
std::string reportToCSV(const ValidationReport &R);

/// JSON in the BENCH_*.json shape. With \p IncludeTiming false (the
/// default) the output contains no wall-clock or thread-count fields and is
/// byte-identical for any engine thread count.
std::string reportToJSON(const ValidationReport &R,
                         bool IncludeTiming = false);

/// One function entry as a single-line JSON object — the same bytes the
/// full report emitter nests inside "functions" (modulo indentation), so a
/// consumer of streamed per-function frames (the validation server) sees
/// exactly what the final report will say. Never includes timing.
std::string functionEntryToJSON(const FunctionReportEntry &F);

/// The result of one engine suite run: one ValidationReport per module (in
/// submission order) plus a roll-up. Like ValidationReport, everything
/// except the wall-clock fields is independent of the thread count.
struct SuiteReport {
  std::string Pipeline;
  unsigned RuleMask = 0;
  bool Stepwise = false;
  unsigned Threads = 1;
  uint64_t WallMicroseconds = 0; ///< end-to-end suite wall time
  /// Per-phase wall-time breakdown for this run (phase or pass name →
  /// microseconds), in engine emission order. Opt-in in the emitters
  /// (IncludeTiming), so default suite output stays byte-identical across
  /// thread counts and with telemetry on or off.
  std::vector<std::pair<std::string, uint64_t>> PhaseMicroseconds;
  std::vector<ValidationReport> Modules;

  // Roll-up aggregates over all modules.
  unsigned modules() const { return static_cast<unsigned>(Modules.size()); }
  unsigned total() const;
  unsigned transformed() const;
  unsigned validated() const;
  unsigned reverted() const;
  unsigned cacheHits() const;
  unsigned warmHits() const;
  unsigned skippedIdentical() const;
  unsigned unsupportedFunctions() const;
  unsigned witnessed() const;
  unsigned suspectedFalseAlarms() const;
  /// Suite-scale missing-rule aggregation (see
  /// ValidationReport::missingRuleCounts), summed over all modules.
  std::vector<std::pair<std::string, unsigned>> missingRuleCounts() const;
  double validationRate() const;
};

/// Human-readable suite report: the roll-up summary followed by every
/// module's text report.
std::string suiteToText(const SuiteReport &S);

/// CSV over all modules: the per-module columns prefixed by a `module`
/// column.
std::string suiteToCSV(const SuiteReport &S, bool IncludeTiming = false);

/// JSON: schema llvmmd-suite-report-v1 with a summary object and the
/// per-module reports nested under "modules". Deterministic for any thread
/// count unless \p IncludeTiming is set.
std::string suiteToJSON(const SuiteReport &S, bool IncludeTiming = false);

} // namespace llvmmd

#endif // LLVMMD_DRIVER_REPORT_H
