//===- batch_validate.cpp - Batch validation CLI on the engine ---------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Drives a whole module end-to-end through the ValidationEngine: load (or
// generate) a multi-function module through the shared ModuleLoader,
// optimize it with a pipeline, validate every transformed function in
// parallel, and emit the report as text, CSV or JSON.
//
//   $ ./batch_validate [options] [SPEC...]
//     SPEC               module spec: FILE (LLVM .ll text, including this
//                        project's printed modules), `-` for stdin, or
//                        profile:NAME for a generated Table-1 benchmark.
//                        More than one spec validates the whole set as a
//                        suite (one report per module plus a roll-up).
//     --input SPEC       same as a positional spec
//     --profile NAME     generate the Table-1 profile NAME when no spec is
//                        given (default: sjeng)
//     --suite NAMES      comma-separated profile list, shorthand for
//                        profile:A profile:B ... appended to the spec list
//     --pipeline P       comma-separated pass list (default: the paper's)
//     --threads N        worker threads for optimize + validate (default:
//                        hardware)
//     --stepwise         per-pass validation with guilty-pass attribution
//     --all-rules        enable the libc/float/global extension rule sets
//     --rule-mask N      set the rule mask explicitly (decimal or 0x hex);
//                        a deliberately restricted mask provokes false
//                        alarms for the triage path to explain
//     --revert           revert functions that fail validation
//     --triage           post-process every rejected pair on the pool:
//                        differential witness search against the reference
//                        interpreter, delta reduction to a minimal failing
//                        pair, and rule-gap attribution for false alarms;
//                        results land in all report formats
//     --triage-inputs N  differential corpus size per pair (default 48)
//     --triage-reduce N  delta-reduction budget in re-validations
//                        (default 128; 0 disables reduction)
//     --resubmit N       run the same module N times (N>1 demonstrates the
//                        verdict cache: later runs replay memoized verdicts)
//     --cache PATH       persistent verdict store: load before the first run
//                        and save after the last, so a second *process* over
//                        the same input replays every verdict
//     --cache-load PATH  load the store but never write it back
//     --cache-save PATH  write the store but start cold
//     --expect-warm      fail (exit 3) unless this process validated nothing
//                        from scratch — every verdict must have replayed
//                        from the store or the in-process cache; this is the
//                        CI warm-cache invariant
//     --print-config-digest
//                        print the store config digest for the current flags
//                        (rule mask / fixpoint budget / semantics salt) and
//                        exit; CI keys its cache on this
//     --json [PATH]      write the JSON report to PATH (default stdout);
//                        deterministic: byte-identical for any --threads
//     --csv [PATH]       write the CSV report
//     --timing           include wall-clock and per-phase timing in the
//                        JSON/CSV reports (breaks byte-identity, which is
//                        why it is opt-in)
//     --trace PATH       write a Chrome trace-event JSON file (load in
//                        chrome://tracing or ui.perfetto.dev) with spans
//                        for optimize/validate/triage/store phases and,
//                        in --stepwise mode, one span per pass execution;
//                        never changes the report bytes
//     --log-level L      diagnostic log verbosity: debug|info|warn|error|
//                        off (default warn; LLVMMD_LOG env is the fallback)
//     --quiet            suppress the text report
//     --help             print the usage (including the spec grammar)
//
// Exit status: 0 when every transformed function validated, 2 when some
// optimization could not be proven, 3 when --expect-warm saw a from-scratch
// validation, 1 on usage or I/O errors.
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llvmmd;

namespace {

/// Prints the persistent-store stats line and enforces --expect-warm: a
/// nonzero return (3) means this process validated pairs from scratch when
/// the caller demanded a 100% replay.
int cacheEpilogue(const ValidationEngine &Engine, const std::string &CachePath,
                  bool Quiet, bool ExpectWarm) {
  const EngineCacheStats &CS = Engine.cacheStats();
  if (!CachePath.empty() && !Quiet) {
    std::printf("verdict store '%s': %llu loaded, %llu warm hits, "
                "%llu validated from scratch, %llu saved\n",
                CachePath.c_str(),
                static_cast<unsigned long long>(CS.StoreLoaded),
                static_cast<unsigned long long>(CS.WarmHits),
                static_cast<unsigned long long>(CS.Misses),
                static_cast<unsigned long long>(CS.StoreSaved));
    if (CS.TriageHits + CS.TriageMisses + CS.TriageStoreLoaded > 0)
      std::printf("triage cache: %llu loaded, %llu replayed (%llu warm), "
                  "%llu interpreted from scratch\n",
                  static_cast<unsigned long long>(CS.TriageStoreLoaded),
                  static_cast<unsigned long long>(CS.TriageHits),
                  static_cast<unsigned long long>(CS.TriageWarmHits),
                  static_cast<unsigned long long>(CS.TriageMisses));
  }
  if (ExpectWarm && CS.Misses > 0) {
    std::fprintf(stderr,
                 "error: --expect-warm, but %llu pair(s) were validated from "
                 "scratch (replay rate < 100%%)\n",
                 static_cast<unsigned long long>(CS.Misses));
    return 3;
  }
  // Warm means the triage work replays too: a rejected pair that was
  // re-interpreted from scratch breaks the invariant the same way a
  // re-validated one does.
  if (ExpectWarm && CS.TriageMisses > 0) {
    std::fprintf(stderr,
                 "error: --expect-warm, but %llu rejected pair(s) were "
                 "re-triaged from scratch (triage replay rate < 100%%)\n",
                 static_cast<unsigned long long>(CS.TriageMisses));
    return 3;
  }
  return 0;
}

bool writeOrPrint(const std::string &Path, const std::string &Content) {
  if (Path.empty() || Path == "-") {
    std::fputs(Content.c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Content;
  return true;
}

void printHelp() {
  std::printf(
      "usage: batch_validate [options] [SPEC...]\n"
      "\n%s\n"
      "  More than one spec validates the whole set as one suite.\n"
      "  Run flags: --profile NAME, --suite NAMES, --pipeline P,\n"
      "  --threads N, --stepwise, --all-rules, --rule-mask N, --revert,\n"
      "  --triage, --triage-inputs N, --triage-reduce N, --resubmit N,\n"
      "  --cache PATH, --cache-load PATH, --cache-save PATH,\n"
      "  --expect-warm, --print-config-digest, --json [PATH], --csv [PATH],\n"
      "  --timing, --trace PATH, --log-level debug|info|warn|error|off,\n"
      "  --quiet, --help\n"
      "  Exit status: 0 all validated, 2 some rejected, 3 --expect-warm\n"
      "  violated, 1 usage or I/O errors.\n",
      moduleSpecHelp());
}

} // namespace

int main(int argc, char **argv) {
  std::string ProfileName = "sjeng";
  std::string SuiteNames;
  std::vector<ModuleSpec> Specs;
  std::string Pipeline = getPaperPipeline();
  std::string JsonPath, CsvPath;
  std::string CachePath;
  std::string TracePath;
  bool EmitJson = false, EmitCsv = false, Quiet = false;
  bool IncludeTiming = false;
  bool Stepwise = false, AllRules = false, Revert = false;
  bool CacheLoad = false, CacheSave = false, ExpectWarm = false;
  bool PrintConfigDigest = false;
  bool Triage = false;
  bool HaveRuleMask = false;
  unsigned RuleMask = 0;
  unsigned Threads = 0, Resubmit = 1;
  unsigned TriageInputs = 48, TriageReduce = 128;

  // --cache/--cache-load/--cache-save may repeat but must agree on the
  // path, and the path is required: a following flag must not be eaten as
  // the store path (that would silently disable the flag it swallowed).
  auto SetCachePath = [&](const char *Opt, const char *P) {
    if (!P || P[0] == '-') {
      std::fprintf(stderr, "error: %s needs a store path\n", Opt);
      return false;
    }
    if (!CachePath.empty() && CachePath != P) {
      std::fprintf(stderr,
                   "error: conflicting store paths '%s' and '%s'\n",
                   CachePath.c_str(), P);
      return false;
    }
    CachePath = P;
    return true;
  };

  auto TakesValue = [&](int &I) -> const char * {
    // Optional value: consumed when the next argv is not another flag. A
    // lone "-" (stdout) is a value, not a flag.
    if (I + 1 < argc && (argv[I + 1][0] != '-' || argv[I + 1][1] == '\0'))
      return argv[++I];
    return nullptr;
  };
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      printHelp();
      return 0;
    } else if (std::strcmp(argv[I], "--profile") == 0 && I + 1 < argc)
      ProfileName = argv[++I];
    else if (std::strcmp(argv[I], "--suite") == 0 && I + 1 < argc)
      SuiteNames = argv[++I];
    else if (std::strcmp(argv[I], "--input") == 0 && I + 1 < argc)
      Specs.push_back(parseModuleSpec(argv[++I]));
    else if (std::strcmp(argv[I], "--pipeline") == 0 && I + 1 < argc)
      Pipeline = argv[++I];
    else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      int V = std::atoi(argv[++I]);
      if (V < 0 || V > 1024) {
        std::fprintf(stderr, "error: bad --threads value '%s'\n", argv[I]);
        return 1;
      }
      Threads = static_cast<unsigned>(V);
    } else if (std::strcmp(argv[I], "--resubmit") == 0 && I + 1 < argc) {
      int V = std::atoi(argv[++I]);
      if (V < 1 || V > 1000000) {
        std::fprintf(stderr, "error: bad --resubmit value '%s'\n", argv[I]);
        return 1;
      }
      Resubmit = static_cast<unsigned>(V);
    }
    else if (std::strcmp(argv[I], "--cache") == 0) {
      if (!SetCachePath("--cache", I + 1 < argc ? argv[++I] : nullptr))
        return 1;
      CacheLoad = CacheSave = true;
    } else if (std::strcmp(argv[I], "--cache-load") == 0) {
      if (!SetCachePath("--cache-load", I + 1 < argc ? argv[++I] : nullptr))
        return 1;
      CacheLoad = true;
    } else if (std::strcmp(argv[I], "--cache-save") == 0) {
      if (!SetCachePath("--cache-save", I + 1 < argc ? argv[++I] : nullptr))
        return 1;
      CacheSave = true;
    } else if (std::strcmp(argv[I], "--expect-warm") == 0)
      ExpectWarm = true;
    else if (std::strcmp(argv[I], "--print-config-digest") == 0)
      PrintConfigDigest = true;
    else if (std::strcmp(argv[I], "--stepwise") == 0)
      Stepwise = true;
    else if (std::strcmp(argv[I], "--all-rules") == 0)
      AllRules = true;
    else if (std::strcmp(argv[I], "--rule-mask") == 0 && I + 1 < argc) {
      char *End = nullptr;
      unsigned long V = std::strtoul(argv[++I], &End, 0);
      if (!End || *End != '\0' || V > RS_All) {
        std::fprintf(stderr, "error: bad --rule-mask value '%s'\n", argv[I]);
        return 1;
      }
      RuleMask = static_cast<unsigned>(V);
      HaveRuleMask = true;
    } else if (std::strcmp(argv[I], "--revert") == 0)
      Revert = true;
    else if (std::strcmp(argv[I], "--triage") == 0)
      Triage = true;
    else if (std::strcmp(argv[I], "--triage-inputs") == 0 && I + 1 < argc) {
      int V = std::atoi(argv[++I]);
      if (V < 1 || V > 100000) {
        std::fprintf(stderr, "error: bad --triage-inputs value '%s'\n",
                     argv[I]);
        return 1;
      }
      TriageInputs = static_cast<unsigned>(V);
    } else if (std::strcmp(argv[I], "--triage-reduce") == 0 && I + 1 < argc) {
      int V = std::atoi(argv[++I]);
      if (V < 0 || V > 1000000) {
        std::fprintf(stderr, "error: bad --triage-reduce value '%s'\n",
                     argv[I]);
        return 1;
      }
      TriageReduce = static_cast<unsigned>(V);
    }
    else if (std::strcmp(argv[I], "--quiet") == 0)
      Quiet = true;
    else if (std::strcmp(argv[I], "--json") == 0) {
      EmitJson = true;
      if (const char *V = TakesValue(I))
        JsonPath = V;
    } else if (std::strcmp(argv[I], "--csv") == 0) {
      EmitCsv = true;
      if (const char *V = TakesValue(I))
        CsvPath = V;
    } else if (std::strcmp(argv[I], "--timing") == 0)
      IncludeTiming = true;
    else if (std::strcmp(argv[I], "--trace") == 0 && I + 1 < argc)
      TracePath = argv[++I];
    else if (std::strcmp(argv[I], "--log-level") == 0 && I + 1 < argc) {
      LogLevel L;
      if (!parseLogLevel(argv[++I], L)) {
        std::fprintf(stderr,
                     "error: bad --log-level '%s' "
                     "(debug|info|warn|error|off)\n",
                     argv[I]);
        return 1;
      }
      setLogLevel(L);
    } else if (argv[I][0] != '-' || argv[I][1] == '\0') {
      Specs.push_back(parseModuleSpec(argv[I]));
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 1;
    }
  }

  // Refuse a bad pipeline up front, with the message every front door
  // uses, rather than let the engine throw on it.
  PassManager PM;
  if (!PM.parsePipeline(Pipeline)) {
    std::fprintf(stderr, "error: %s\n", pipelineError(Pipeline).c_str());
    return 1;
  }

  EngineConfig C;
  C.Threads = Threads;
  if (AllRules)
    C.Rules.Mask = RS_All;
  if (HaveRuleMask)
    C.Rules.Mask = RuleMask;
  C.Granularity = Stepwise ? ValidationGranularity::PerPass
                           : ValidationGranularity::WholePipeline;
  C.RevertFailures = Revert;
  C.Triage.Enabled = Triage;
  C.Triage.MaxInputs = TriageInputs;
  C.Triage.ReduceBudget = TriageReduce;
  C.CachePath = CachePath;
  C.CacheLoad = CacheLoad;
  C.CacheSave = CacheSave;

  if (PrintConfigDigest) {
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 verdictStoreConfigDigest(C.Rules)));
    return 0;
  }

  if (Resubmit == 0)
    Resubmit = 1;

  // --suite NAMES is shorthand for appending profile:NAME specs; the whole
  // spec list then loads through the one shared ModuleLoader entry point.
  if (!SuiteNames.empty()) {
    std::string Name;
    std::stringstream SS(SuiteNames);
    while (std::getline(SS, Name, ',')) {
      if (Name.empty())
        continue;
      Specs.push_back(parseModuleSpec("profile:" + Name));
    }
    if (Specs.empty()) {
      std::fprintf(stderr, "error: --suite needs at least one profile\n");
      return 1;
    }
  }
  if (Specs.empty())
    Specs.push_back(parseModuleSpec("profile:" + ProfileName));

  // Tracing is enabled for the whole run (load through report emission)
  // and flushed after the reports are out, so an I/O failure on the trace
  // path cannot cost the validation results. batch_validate is a front
  // door, so it mints the run's trace id itself — the same args.trace_id
  // key a fleet flame carries, greppable from log lines.
  if (!TracePath.empty()) {
    traceEnable();
    traceSetCurrentTraceId(traceMintTraceId());
  }
  auto WriteTrace = [&]() {
    if (TracePath.empty())
      return true;
    std::string Err;
    if (!traceWriteFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return false;
    }
    return true;
  };

  Context Ctx;
  LoadResult Loaded = loadModules(Ctx, Specs);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
    return 1;
  }

  // Suite mode: more than one module (profiles and/or files), all in one
  // Context, validated as a single engine batch sharded over the shared
  // pool.
  if (!SuiteNames.empty() || Loaded.Modules.size() > 1) {
    std::vector<const Module *> ModPtrs;
    for (const LoadedModule &LM : Loaded.Modules)
      ModPtrs.push_back(LM.M.get());

    ValidationEngine Engine(C);
    SuiteRun Run;
    for (unsigned I = 0; I < Resubmit; ++I) {
      Run = Engine.runSuite(ModPtrs, Pipeline);
      if (!Quiet && Resubmit > 1) {
        const EngineCacheStats &CS = Engine.cacheStats();
        std::printf("run %u/%u: %.2f ms wall, cache hits so far: %llu, "
                    "validated from scratch: %llu\n",
                    I + 1, Resubmit, Run.Report.WallMicroseconds / 1000.0,
                    static_cast<unsigned long long>(CS.Hits),
                    static_cast<unsigned long long>(CS.Misses));
      }
    }
    for (size_t I = 0; I < Loaded.Modules.size(); ++I)
      attachUnsupported(Run.Report.Modules[I], Loaded.Modules[I]);

    if (!Quiet)
      std::fputs(suiteToText(Run.Report).c_str(), stdout);
    if (EmitJson &&
        !writeOrPrint(JsonPath, suiteToJSON(Run.Report, IncludeTiming)))
      return 1;
    if (EmitCsv &&
        !writeOrPrint(CsvPath, suiteToCSV(Run.Report, IncludeTiming)))
      return 1;
    if (!WriteTrace())
      return 1;
    if (int RC = cacheEpilogue(Engine, CachePath, Quiet, ExpectWarm))
      return RC;
    return Run.Report.validated() == Run.Report.transformed() ? 0 : 2;
  }

  LoadedModule &LM = Loaded.Modules.front();

  ValidationEngine Engine(C);
  EngineRun Run;
  for (unsigned I = 0; I < Resubmit; ++I) {
    Run = Engine.run(*LM.M, PM);
    if (!Quiet && Resubmit > 1) {
      const EngineCacheStats &CS = Engine.cacheStats();
      std::printf("run %u/%u: %.2f ms wall, cache hits so far: %llu, "
                  "validated from scratch: %llu\n",
                  I + 1, Resubmit, Run.Report.WallMicroseconds / 1000.0,
                  static_cast<unsigned long long>(CS.Hits),
                  static_cast<unsigned long long>(CS.Misses));
    }
  }
  attachUnsupported(Run.Report, LM);

  if (!Quiet)
    std::fputs(reportToText(Run.Report).c_str(), stdout);
  if (EmitJson &&
      !writeOrPrint(JsonPath, reportToJSON(Run.Report, IncludeTiming)))
    return 1;
  if (EmitCsv && !writeOrPrint(CsvPath, reportToCSV(Run.Report)))
    return 1;
  if (!WriteTrace())
    return 1;
  if (int RC = cacheEpilogue(Engine, CachePath, Quiet, ExpectWarm))
    return RC;
  // 0 = everything that was transformed validated; 2 = some optimization
  // could not be proven (whether or not it was reverted).
  return Run.Report.validated() == Run.Report.transformed() ? 0 : 2;
}
