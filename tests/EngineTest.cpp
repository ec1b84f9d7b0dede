//===- EngineTest.cpp - Parallel batch validation engine tests ---------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"
#include "ir/Cloning.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "ir/Printer.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <atomic>
#include <stdexcept>
#include <thread>

using namespace llvmmd;
using testutil::parseOrDie;

namespace {

const char *TwoFunctions = R"(
define i32 @redundant(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %y = add i32 %a, %b
  %c = icmp slt i32 %x, %b
  br i1 %c, label %t, label %f
t:
  %s = sub i32 %x, %b
  br label %join
f:
  %z = add i32 %y, 1
  br label %join
join:
  %r = phi i32 [ %s, %t ], [ %z, %f ]
  ret i32 %r
}

define i32 @plain(i32 %n) {
entry:
  %m = mul i32 %n, 3
  %p = add i32 %m, 7
  ret i32 %p
}
)";

/// A reduced Table-1 profile so engine tests stay fast.
BenchmarkProfile smallProfile() {
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 12;
  return P;
}

/// injectBug as a pipeline pass, for guilty-pass attribution tests.
class BugInjectorPass : public FunctionPass {
public:
  const char *getName() const override { return "bug-inject"; }
  bool run(Function &F, FunctionAnalyses &) const override {
    return !injectBug(F, 42).empty();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(EngineTest, FingerprintIgnoresNamesButSeesMutations) {
  Context Ctx;
  auto M = parseOrDie(Ctx, TwoFunctions);
  auto Clone = cloneModule(*M);

  Function *F = M->getFunction("redundant");
  Function *FC = Clone->getFunction("redundant");
  EXPECT_EQ(fingerprintFunction(*F), fingerprintFunction(*FC));

  // The function's own name does not participate.
  FC->setName("renamed");
  EXPECT_EQ(fingerprintFunction(*F), fingerprintFunction(*FC));

  // Distinct bodies fingerprint differently.
  EXPECT_NE(fingerprintFunction(*F),
            fingerprintFunction(*M->getFunction("plain")));

  // A semantics-changing mutation is visible.
  ASSERT_FALSE(injectBug(*FC, 7).empty());
  EXPECT_NE(fingerprintFunction(*F), fingerprintFunction(*FC));
}

//===----------------------------------------------------------------------===//
// Determinism across thread counts
//===----------------------------------------------------------------------===//

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  std::string Baseline;
  for (unsigned Threads : {1u, 2u, 8u}) {
    // Fresh Context per engine so runs cannot influence each other through
    // interned-constant state; the generator is a pure function of the
    // profile, so all three engines see identical modules.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.Threads = Threads;
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.getThreadCount(), Threads);
    EngineRun Run = Engine.run(*M, getPaperPipeline());
    std::string Json = reportToJSON(Run.Report);
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Baseline, Json) << "thread count " << Threads
                                << " changed the report";
  }
  EXPECT_FALSE(Baseline.empty());
}

// The string entry points parse the pipeline in every build, not only
// under assertions: an unknown pass must not yield a run that transformed
// nothing and reported success.
TEST(EngineTest, UnknownPassInPipelineThrows) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  ValidationEngine Engine;
  EXPECT_THROW(Engine.run(*M, "adce,bogus"), std::invalid_argument);
  EXPECT_THROW(Engine.runSuite({M.get()}, "gvn,,frobnicate"),
               std::invalid_argument);
  try {
    Engine.run(*M, "bogus");
  } catch (const std::invalid_argument &E) {
    EXPECT_STREQ(E.what(), "bad pipeline 'bogus'");
  }
  EXPECT_EQ(Engine.run(*M, getPaperPipeline()).Report.total(),
            M->definedFunctions().size());
}

TEST(EngineTest, DeterministicStepwiseAcrossThreadCounts) {
  std::string Baseline;
  for (unsigned Threads : {1u, 4u}) {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.Threads = Threads;
    C.Granularity = ValidationGranularity::PerPass;
    ValidationEngine Engine(C);
    std::string Json = reportToJSON(Engine.run(*M, getPaperPipeline()).Report);
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Baseline, Json);
  }
}

TEST(EngineTest, OnePipelineServesFourThreads) {
  // Passes keep no state between runs and PassManager::run(Function&)
  // writes no counters, so four threads may share one pipeline, each on
  // its own functions. The output must equal the serial pipeline's:
  // PassTest pins the same digest for PassManager::run(Module&). Under
  // TSan a pass or manager that writes a member is a data race here.
  std::vector<std::unique_ptr<Context>> Contexts;
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<Function *> Functions;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    Contexts.push_back(std::make_unique<Context>());
    Modules.push_back(generateBenchmark(*Contexts.back(), P));
    for (Function *F : Modules.back()->definedFunctions())
      Functions.push_back(F);
  }
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Functions.size();)
        PM.run(*Functions[I]);
    });
  for (std::thread &Th : Threads)
    Th.join();

  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (const auto &M : Modules) {
    std::string Text = printModule(*M);
    Digest = hashBytes(Text.data(), Text.size(), Digest);
  }
  EXPECT_EQ(Digest, 0x27af2cf41c2d5901ULL);
}

//===----------------------------------------------------------------------===//
// Suite sharding
//===----------------------------------------------------------------------===//

TEST(EngineTest, SuiteShardingDeterministicAcrossThreadCounts) {
  std::string Baseline;
  for (unsigned Threads : {1u, 2u, 8u}) {
    // Fresh Context per engine so runs cannot influence each other; both
    // modules share it, as in the suite CLI.
    Context Ctx;
    auto M1 = generateBenchmark(Ctx, smallProfile());
    BenchmarkProfile P2 = getProfile("hmmer");
    P2.FunctionCount = 8;
    auto M2 = generateBenchmark(Ctx, P2);

    EngineConfig C;
    C.Threads = Threads;
    ValidationEngine Engine(C);
    SuiteRun Run = Engine.runSuite({M1.get(), M2.get()}, getPaperPipeline());

    ASSERT_EQ(Run.Report.modules(), 2u);
    ASSERT_EQ(Run.Optimized.size(), 2u);
    // Roll-up must agree with the per-module reports, and the suite JSON —
    // per-module JSON included — must not depend on the thread count.
    EXPECT_EQ(Run.Report.total(), Run.Report.Modules[0].total() +
                                      Run.Report.Modules[1].total());
    EXPECT_EQ(Run.Report.validated(), Run.Report.Modules[0].validated() +
                                          Run.Report.Modules[1].validated());
    std::string Json = suiteToJSON(Run.Report);
    EXPECT_NE(Json.find("\"llvmmd-suite-report-v1\""), std::string::npos);
    for (const ValidationReport &R : Run.Report.Modules)
      EXPECT_NE(Json.find("\"module\": \"" + R.ModuleName + "\""),
                std::string::npos);
    EXPECT_EQ(Json.find("\"wall_us\""), std::string::npos)
        << "timing leaked into the deterministic suite JSON";
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Baseline, Json) << "thread count " << Threads
                                << " changed the suite report";
  }
  EXPECT_FALSE(Baseline.empty());
}

TEST(EngineTest, SuiteSharesVerdictsAcrossModules) {
  // Two identical modules in one suite: every pair of the second module is
  // an in-batch duplicate of the first's, replayed deterministically.
  Context Ctx;
  auto M1 = generateBenchmark(Ctx, smallProfile());
  // Same profile, same seed: structurally identical module.
  auto M2 = generateBenchmark(Ctx, smallProfile());

  ValidationEngine Engine;
  SuiteRun Run = Engine.runSuite({M1.get(), M2.get()}, getPaperPipeline());
  const ValidationReport &R1 = Run.Report.Modules[0];
  const ValidationReport &R2 = Run.Report.Modules[1];
  ASSERT_EQ(R1.total(), R2.total());
  for (size_t I = 0; I < R1.Functions.size(); ++I) {
    const FunctionReportEntry &A = R1.Functions[I];
    const FunctionReportEntry &B = R2.Functions[I];
    EXPECT_EQ(A.FingerprintOpt, B.FingerprintOpt) << A.Name;
    EXPECT_EQ(A.Validated, B.Validated) << A.Name;
    // The second module's transformed functions replay the first's verdicts.
    if (B.Transformed && !B.SkippedIdentical)
      EXPECT_TRUE(B.CacheHit) << B.Name;
  }
  EXPECT_EQ(Run.Report.cacheHits(), R2.transformed() - R2.skippedIdentical());
}

TEST(EngineTest, SuiteStepwiseRevertProducesCertifiedModules) {
  // Stepwise run with a failing caller-assembled pass (the injector has no
  // registry name) on the shared pipeline, reverted to certified
  // snapshots.
  Context Ctx;
  auto M = parseOrDie(Ctx, TwoFunctions);

  PassManager PM;
  PM.addPass(createPass("gvn"));
  PM.addPass(std::make_unique<BugInjectorPass>());

  EngineConfig C;
  C.Granularity = ValidationGranularity::PerPass;
  C.RevertFailures = true;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, PM);

  ValidationReport Certified = Engine.validateModules(*M, *Run.Optimized);
  for (const FunctionReportEntry &E : Certified.Functions)
    EXPECT_TRUE(E.Validated || E.SkippedIdentical) << E.Name;
}

//===----------------------------------------------------------------------===//
// Cache and O(1) identical skip
//===----------------------------------------------------------------------===//

TEST(EngineTest, IdenticalModulesAreSkippedInConstantTime) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  auto Clone = cloneModule(*M);

  ValidationEngine Engine;
  ValidationReport R = Engine.validateModules(*M, *Clone);
  EXPECT_EQ(R.total(), M->definedFunctions().size());
  for (const FunctionReportEntry &E : R.Functions) {
    EXPECT_TRUE(E.SkippedIdentical) << E.Name;
    EXPECT_TRUE(E.Validated) << E.Name;
    EXPECT_TRUE(E.Result.EqualOnConstruction) << E.Name;
  }
  // Nothing was validated from scratch: the fingerprint path short-circuits
  // before any graph is built.
  EXPECT_EQ(Engine.cacheStats().Misses, 0u);
  EXPECT_EQ(Engine.cacheStats().SkippedIdentical,
            M->definedFunctions().size());
}

TEST(EngineTest, ValidateModulesFeedsTheEngineMetrics) {
  // Pair mode reports its skips, cache hits and triage runs to the same
  // process metrics as optimizing runs do.
  Counter &Skipped = telemetry().counter(
      "llvmmd_engine_skipped_identical_total", "");
  Counter &Hits = telemetry().counter("llvmmd_engine_cache_hits_total", "");
  Counter &TriageRuns =
      telemetry().counter("llvmmd_engine_triage_runs_total", "");
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  auto Clone = cloneModule(*M);
  auto Opt = cloneModule(*M);
  unsigned Injected = 0;
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  PM.run(*Opt);
  // Miscompile two functions so that triage has work.
  for (Function *F : Opt->definedFunctions())
    if (F->getInstructionCount() > 4 && !injectBug(*F, 7).empty() &&
        ++Injected == 2)
      break;

  EngineConfig C;
  C.Triage.Enabled = true;
  C.Triage.MaxInputs = 32;
  C.Triage.ReduceBudget = 0;
  ValidationEngine Engine(C);
  uint64_t SkippedBefore = Skipped.value();
  Engine.validateModules(*M, *Clone);
  EXPECT_EQ(Skipped.value() - SkippedBefore, M->definedFunctions().size());

  uint64_t HitsBefore = Hits.value(), TriageBefore = TriageRuns.value();
  ValidationReport First = Engine.validateModules(*M, *Opt);
  ASSERT_GT(First.transformed(), First.validated()) << "nothing to triage";
  EXPECT_EQ(Hits.value(), HitsBefore);
  EXPECT_EQ(TriageRuns.value() - TriageBefore,
            First.transformed() - First.validated());
  ValidationReport Second = Engine.validateModules(*M, *Opt);
  EXPECT_GT(Second.cacheHits(), 0u);
  EXPECT_EQ(Hits.value() - HitsBefore, Second.cacheHits());
  EXPECT_EQ(TriageRuns.value() - TriageBefore,
            First.transformed() - First.validated())
      << "a resubmission replays its triage results";
}

TEST(EngineTest, ResubmissionHitsTheVerdictCache) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  auto Opt = cloneModule(*M);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  PM.run(*Opt);

  ValidationEngine Engine;
  ValidationReport First = Engine.validateModules(*M, *Opt);
  uint64_t MissesAfterFirst = Engine.cacheStats().Misses;
  EXPECT_GT(MissesAfterFirst, 0u);
  EXPECT_EQ(Engine.cacheStats().Hits, 0u);

  // Identical resubmission: every verdict is replayed, none recomputed.
  ValidationReport Second = Engine.validateModules(*M, *Opt);
  EXPECT_EQ(Engine.cacheStats().Misses, MissesAfterFirst);
  EXPECT_EQ(Engine.cacheStats().Hits, MissesAfterFirst);
  EXPECT_EQ(Second.cacheHits(), First.transformed() - First.skippedIdentical());

  // Verdicts are identical either way.
  EXPECT_EQ(First.validated(), Second.validated());
  for (size_t I = 0; I < First.Functions.size(); ++I) {
    EXPECT_EQ(First.Functions[I].Validated, Second.Functions[I].Validated);
    EXPECT_EQ(First.Functions[I].Result.Rewrites,
              Second.Functions[I].Result.Rewrites);
  }

  // clearCache forgets the verdicts.
  Engine.clearCache();
  ValidationReport Third = Engine.validateModules(*M, *Opt);
  EXPECT_EQ(Third.cacheHits(), 0u);
}

TEST(EngineTest, PipelineRunsReportCacheHitsOnResubmission) {
  Context Ctx;
  auto M = parseOrDie(Ctx, TwoFunctions);
  ValidationEngine Engine;
  EngineRun First = Engine.run(*M, "gvn,sccp");
  ASSERT_GT(First.Report.transformed(), 0u);
  EXPECT_EQ(First.Report.cacheHits(), 0u);

  EngineRun Second = Engine.run(*M, "gvn,sccp");
  EXPECT_GT(Engine.cacheStats().Hits, 0u);
  // The verdicts must be identical; only the cache_hit provenance flags may
  // differ between a first run and a resubmission.
  ASSERT_EQ(First.Report.Functions.size(), Second.Report.Functions.size());
  for (size_t I = 0; I < First.Report.Functions.size(); ++I) {
    const FunctionReportEntry &A = First.Report.Functions[I];
    const FunctionReportEntry &B = Second.Report.Functions[I];
    EXPECT_EQ(A.FingerprintOpt, B.FingerprintOpt) << A.Name;
    EXPECT_EQ(A.Validated, B.Validated) << A.Name;
    EXPECT_EQ(A.Result.Rewrites, B.Result.Rewrites) << A.Name;
    EXPECT_EQ(A.Transformed && !A.SkippedIdentical, B.CacheHit) << A.Name;
  }
}

//===----------------------------------------------------------------------===//
// Stepwise granularity: guilty-pass attribution and certified-prefix revert
//===----------------------------------------------------------------------===//

TEST(EngineTest, StepwiseAttributesInjectedBugToGuiltyPass) {
  Context Ctx;
  auto M = parseOrDie(Ctx, TwoFunctions);

  PassManager PM;
  PM.addPass(createPass("gvn"));
  PM.addPass(std::make_unique<BugInjectorPass>());
  PM.addPass(createPass("adce"));

  EngineConfig C;
  C.Granularity = ValidationGranularity::PerPass;
  C.RevertFailures = true;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, PM);

  unsigned Attributed = 0;
  for (const FunctionReportEntry &E : Run.Report.Functions) {
    ASSERT_EQ(E.Steps.size(), 3u) << E.Name;
    // The injector mutated the function; a sound validator must reject the
    // whole pipeline and pin the failure on the injector, not on the real
    // optimizations around it.
    if (!E.Steps[1].Changed)
      continue;
    EXPECT_FALSE(E.Validated) << E.Name;
    EXPECT_EQ(E.GuiltyPass, "bug-inject") << E.Name;
    EXPECT_TRUE(E.Reverted) << E.Name;
    ++Attributed;
  }
  EXPECT_GT(Attributed, 0u) << "injector never fired; test IR needs sites";

  // Reverting to the last certified snapshot yields a module in which every
  // function is provably equivalent to its original.
  ValidationReport Certified =
      Engine.validateModules(*M, *Run.Optimized);
  for (const FunctionReportEntry &E : Certified.Functions)
    EXPECT_TRUE(E.Validated || E.SkippedIdentical) << E.Name;
}

TEST(EngineTest, WholePipelineRevertRestoresOriginal) {
  Context Ctx;
  auto M = parseOrDie(Ctx, TwoFunctions);

  PassManager PM;
  PM.addPass(std::make_unique<BugInjectorPass>());

  EngineConfig C;
  C.RevertFailures = true;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, PM);

  unsigned Reverted = 0;
  for (const FunctionReportEntry &E : Run.Report.Functions) {
    if (!E.Transformed)
      continue;
    EXPECT_FALSE(E.Validated) << E.Name;
    EXPECT_TRUE(E.Reverted) << E.Name;
    ++Reverted;
  }
  EXPECT_GT(Reverted, 0u);
  testutil::expectVerified(*Run.Optimized);

  // The reverted output is structurally identical to the input module.
  ValidationReport Certified = Engine.validateModules(*M, *Run.Optimized);
  for (const FunctionReportEntry &E : Certified.Functions)
    EXPECT_TRUE(E.SkippedIdentical) << E.Name;
}

TEST(EngineTest, ParallelRevertIsDeterministicAcrossThreadCounts) {
  // The revert phase re-clones certified bodies one pool task per function,
  // and every optimizer task runs the one caller-assembled pipeline (the
  // injector has no registry name); the reverted output and the report
  // must not depend on the thread count, in either granularity.
  for (ValidationGranularity G : {ValidationGranularity::WholePipeline,
                                  ValidationGranularity::PerPass}) {
    std::string Baseline, BaselineText;
    for (unsigned Threads : {1u, 4u}) {
      Context Ctx;
      auto M = generateBenchmark(Ctx, smallProfile());

      PassManager PM;
      PM.addPass(createPass("gvn"));
      PM.addPass(std::make_unique<BugInjectorPass>());

      EngineConfig C;
      C.Threads = Threads;
      C.Granularity = G;
      C.RevertFailures = true;
      ValidationEngine Engine(C);
      EngineRun Run = Engine.run(*M, PM);
      EXPECT_GT(Run.Report.reverted(), 0u);
      testutil::expectVerified(*Run.Optimized);

      // Every reverted function must be provably equivalent to its
      // original again, and the whole report and the reverted module must
      // be thread-count independent.
      ValidationReport Certified =
          Engine.validateModules(*M, *Run.Optimized);
      for (const FunctionReportEntry &E : Certified.Functions)
        EXPECT_TRUE(E.Validated || E.SkippedIdentical) << E.Name;
      std::string Json = reportToJSON(Run.Report);
      std::string Text = printModule(*Run.Optimized);
      if (Baseline.empty()) {
        Baseline = Json;
        BaselineText = Text;
        continue;
      }
      EXPECT_EQ(Baseline, Json) << "thread count " << Threads
                                << " changed the reverted report";
      EXPECT_EQ(BaselineText, Text) << "thread count " << Threads
                                    << " changed the reverted module";
    }
  }
}

//===----------------------------------------------------------------------===//
// Report emitters
//===----------------------------------------------------------------------===//

TEST(EngineTest, ReportEmittersAgreeOnAggregates) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  ValidationEngine Engine;
  EngineRun Run = Engine.run(*M, getPaperPipeline());
  const ValidationReport &R = Run.Report;

  std::string Text = reportToText(R);
  EXPECT_NE(Text.find(R.ModuleName), std::string::npos);

  std::string Csv = reportToCSV(R);
  // Header + one row per function.
  size_t Rows = 0;
  for (char Ch : Csv)
    Rows += Ch == '\n';
  EXPECT_EQ(Rows, 1 + R.total());

  std::string Json = reportToJSON(R);
  EXPECT_NE(Json.find("\"llvmmd-validation-report-v1\""), std::string::npos);
  EXPECT_EQ(Json.find("\"wall_us\""), std::string::npos)
      << "timing leaked into the deterministic JSON shape";
  std::string Timed = reportToJSON(R, /*IncludeTiming=*/true);
  EXPECT_NE(Timed.find("\"wall_us\""), std::string::npos);
}
