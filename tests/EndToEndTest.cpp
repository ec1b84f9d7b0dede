//===- EndToEndTest.cpp - Workload-scale properties ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Property-style sweeps over the synthetic benchmark suite: the optimizer
// must preserve behavior (differential testing against the reference
// interpreter), the validator must accept enough of the pipeline's work
// (effectiveness floor), never accept an injected miscompile layered on
// top of real optimizations, and everything must be deterministic.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/ValidationEngine.h"
#include "ir/Cloning.h"
#include "ir/Interpreter.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "triage/DifferentialTester.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

BenchmarkProfile smallProfile(const char *Name, unsigned MaxFns) {
  BenchmarkProfile P = getProfile(Name);
  P.FunctionCount = std::min(P.FunctionCount, MaxFns);
  return P;
}

} // namespace

class ProfileSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(ProfileSweep, GeneratedModulesVerify) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 20));
  expectVerified(*M);
  EXPECT_FALSE(M->definedFunctions().empty());
}

TEST_P(ProfileSweep, PipelinePreservesBehaviorAndVerifies) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 12));
  auto Opt = cloneModule(*M);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  PM.run(*Opt);
  expectVerified(*Opt);

  Interpreter IA(*M), IB(*Opt);
  uint64_t SA = IA.materializeString("translation validation");
  uint64_t SB = IB.materializeString("translation validation");
  unsigned Compared = 0;
  for (Function *F : M->definedFunctions()) {
    Function *FO = Opt->getFunction(F->getName());
    ASSERT_NE(FO, nullptr);
    for (int T = 0; T < 4; ++T) {
      std::vector<RtValue> ArgsA{RtValue::makeInt(T * 13 - 7),
                                 RtValue::makeInt(3 - T),
                                 RtValue::makePtr(SA)};
      std::vector<RtValue> ArgsB{RtValue::makeInt(T * 13 - 7),
                                 RtValue::makeInt(3 - T),
                                 RtValue::makePtr(SB)};
      ExecResult RA = IA.run(*F, ArgsA);
      ExecResult RB = IB.run(*FO, ArgsB);
      // The paper's model: only runs that terminate without error count.
      if (RA.Status != ExecStatus::OK || RB.Status != ExecStatus::OK)
        continue;
      ++Compared;
      EXPECT_TRUE(RA.Value == RB.Value)
          << F->getName() << " run " << T << ": " << RA.Value.Int << " vs "
          << RB.Value.Int;
      EXPECT_EQ(IA.globalMemory(), IB.globalMemory()) << F->getName();
    }
  }
  EXPECT_GT(Compared, 0u);
}

TEST_P(ProfileSweep, ValidationEffectivenessFloor) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 16));
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  EngineConfig C;
  C.RevertFailures = true;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, PM);
  const ValidationReport &Report = Run.Report;
  expectVerified(*Run.Optimized);
  // The paper validates ~80% overall; demand at least 50% per (truncated)
  // benchmark so regressions in the rules or the builder surface here.
  if (Report.transformed() >= 4)
    EXPECT_GE(Report.validationRate(), 0.5)
        << "validation effectiveness collapsed for " << GetParam();
}

TEST_P(ProfileSweep, ValidatedOptimizationsAgreeWithInterpreter) {
  // Stronger soundness evidence: every *validated* pair agrees on the
  // reference interpreter for all tested inputs.
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 10));
  auto Opt = cloneModule(*M);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  RuleConfig C;
  C.Mask = RS_All;
  C.M = M.get();
  Interpreter IA(*M), IB(*Opt);
  uint64_t SA = IA.materializeString("abc");
  uint64_t SB = IB.materializeString("abc");
  for (Function *FO : Opt->definedFunctions()) {
    if (!PM.run(*FO))
      continue;
    Function *FI = M->getFunction(FO->getName());
    auto R = validatePair(*FI, *FO, C);
    if (!R.Validated)
      continue;
    for (int T = 0; T < 3; ++T) {
      std::vector<RtValue> ArgsA{RtValue::makeInt(T), RtValue::makeInt(-T),
                                 RtValue::makePtr(SA)};
      std::vector<RtValue> ArgsB{RtValue::makeInt(T), RtValue::makeInt(-T),
                                 RtValue::makePtr(SB)};
      ExecResult RA = IA.run(*FI, ArgsA);
      ExecResult RB = IB.run(*FO, ArgsB);
      if (RA.Status != ExecStatus::OK || RB.Status != ExecStatus::OK)
        continue;
      EXPECT_TRUE(RA.Value == RB.Value)
          << "validated pair disagrees: " << FI->getName();
      EXPECT_EQ(IA.globalMemory(), IB.globalMemory());
    }
  }
}

TEST_P(ProfileSweep, InjectedBugsRejectedOnWorkload) {
  // The soundness property: whenever a mutation observably changes
  // behavior (per the reference interpreter), the validator must reject
  // it. Mutations that happen to hit dead code may legitimately validate.
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 8));
  auto Opt = cloneModule(*M);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline("gvn,sccp"));
  RuleConfig C;
  C.Mask = RS_All;
  C.M = M.get();
  // The triage subsystem's differential tester is the observability
  // oracle: boundary-seeded corpus, return value and global memory.
  DifferentialTester DT(*M, *Opt);
  uint64_t Seed = 1;
  unsigned BehaviorChanging = 0;
  for (Function *FO : Opt->definedFunctions()) {
    PM.run(*FO);
    std::string Desc = injectBug(*FO, Seed++);
    if (Desc.empty())
      continue;
    Function *FI = M->getFunction(FO->getName());
    if (!DT.test(*FI, *FO, 48).HasWitness)
      continue; // mutation not observable on these inputs: no claim
    ++BehaviorChanging;
    auto R = validatePair(*FI, *FO, C);
    EXPECT_FALSE(R.Validated)
        << GetParam() << "/" << FO->getName()
        << ": accepted behavior-changing mutation '" << Desc << "'";
  }
  EXPECT_GT(BehaviorChanging, 0u) << "sweep exercised nothing";
}

TEST_P(ProfileSweep, DeterministicGenerationAndValidation) {
  auto Run = [&](std::string &TextOut) -> double {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile(GetParam(), 8));
    TextOut = printModule(*M);
    EngineConfig C;
    C.RevertFailures = true;
    ValidationEngine Engine(C);
    return Engine.run(*M, getPaperPipeline()).Report.validationRate();
  };
  std::string T1, T2;
  double R1 = Run(T1), R2 = Run(T2);
  EXPECT_EQ(T1, T2) << "generator must be a pure function of the seed";
  EXPECT_EQ(R1, R2) << "validation must be deterministic";
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileSweep,
                         ::testing::Values("sqlite", "bzip2", "gcc", "lbm",
                                           "perlbench", "sjeng", "hmmer",
                                           "mcf"));
