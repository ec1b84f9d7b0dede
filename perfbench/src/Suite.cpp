//===- Suite.cpp - The seeded 12-profile suite and its pairs --------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "ir/Cloning.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "triage/DifferentialTester.h"
#include "workload/Generator.h"

#include <regex>

using namespace llvmmd;

namespace perfbench {

namespace {

/// Interpreter budget per run and inputs per candidate when confirming a
/// planted bug: small, so set-up time hardly depends on which functions
/// the seed picks. A candidate without a witness is simply not planted.
constexpr uint64_t BugStepBudget = 1u << 14;
constexpr unsigned BugInputs = 16;

} // namespace

std::vector<BenchmarkProfile> suiteProfiles(uint64_t SuiteSeed) {
  std::vector<BenchmarkProfile> Ps = getPaperSuite();
  if (SuiteSeed)
    for (BenchmarkProfile &P : Ps)
      P.Seed = hashCombine(P.Seed, SuiteSeed);
  return Ps;
}

void generateSuite(Suite &S, uint64_t SuiteSeed) {
  for (const BenchmarkProfile &P : suiteProfiles(SuiteSeed)) {
    S.Orig.push_back(generateBenchmark(*S.Ctx, P));
    S.Functions += S.Orig.back()->definedFunctions().size();
  }
}

void collectPairs(Suite &S, unsigned M) {
  for (const Function *F : S.Orig[M]->definedFunctions()) {
    const Function *G = S.Opt[M]->getFunction(F->getName());
    if (G && fingerprintFunction(*F) != fingerprintFunction(*G))
      S.Pairs.push_back({F, G, M, false});
  }
}

void optimizeSuite(Suite &S) {
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  for (unsigned M = 0; M < S.Orig.size(); ++M) {
    S.Opt.push_back(cloneModule(*S.Orig[M]));
    PM.run(*S.Opt.back());
    collectPairs(S, M);
  }
}

void plantBugs(Suite &S, uint64_t Seed, unsigned PerModule) {
  std::vector<Pair> Out;
  Rng R(hashCombine(Seed, 0xb065));
  for (unsigned M = 0; M < S.Orig.size(); ++M) {
    std::vector<const Function *> Candidates;
    for (const Pair &P : S.Pairs)
      if (P.Module == M) {
        Out.push_back(P);
        Candidates.push_back(P.Orig);
      }
    S.Bugged.push_back(cloneModule(*S.Opt[M]));
    Module &B = *S.Bugged.back();
    // Seeded Fisher-Yates over the module's transformed functions; each
    // candidate is mutated at most once.
    for (size_t I = Candidates.size(); I > 1; --I)
      std::swap(Candidates[I - 1], Candidates[R.below(I)]);
    unsigned Planted = 0;
    for (size_t I = 0; I < Candidates.size() && I < 4 * PerModule &&
                       Planted < PerModule;
         ++I) {
      Function *Victim = B.getFunction(Candidates[I]->getName());
      if (injectBug(*Victim, R.next()).empty())
        continue;
      DifferentialTester DT(*S.Orig[M], B, BugStepBudget);
      if (!DT.test(*Candidates[I], *Victim, BugInputs).HasWitness)
        continue;
      Out.push_back({Candidates[I], Victim, M, true});
      ++Planted;
    }
    S.Bugs += Planted;
  }
  S.Pairs = std::move(Out);
}

uint64_t verdictDigest(const ValidationResult &R) {
  uint64_t H = hashCombine(R.Validated, R.Unsupported);
  for (uint64_t V : {R.Iterations, R.Rewrites, R.SharingMerges,
                     R.GraphNodes, R.LiveNodes,
                     static_cast<uint64_t>(R.EqualOnConstruction)})
    H = hashCombine(H, V);
  return hashCombine(H, hashString(R.Reason));
}

std::string stripProvenance(std::string Json) {
  static const std::regex Flags("\"(cache_hit|warm_hit)\": (true|false), ");
  return std::regex_replace(Json, Flags, "");
}

} // namespace perfbench
