//===- Validator.cpp - Translation validation driver --------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "validator/Validator.h"

#include "ir/Module.h"
#include "normalize/Normalizer.h"
#include "vg/GraphBuilder.h"

#include <chrono>

using namespace llvmmd;

ValidationResult llvmmd::validatePair(const Function &Original,
                                      const Function &Optimized,
                                      const RuleConfig &Config) {
  ValidationResult R;
  auto Start = std::chrono::steady_clock::now();
  auto Finish = [&]() -> ValidationResult & {
    R.Microseconds = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    return R;
  };

  if (Original.getFunctionType() != Optimized.getFunctionType()) {
    R.Unsupported = true;
    R.Reason = "signature mismatch";
    return Finish();
  }

  // A pair's graph ends up with about one node per instruction of the two
  // functions (1.04 over the suite, normalization included); sizing its
  // tables once saves their doubling series.
  ValueGraph G;
  G.reserve(3 * (Original.getInstructionCount() +
                 Optimized.getInstructionCount()) /
                2 +
            64);
  BuildResult A = buildValueGraph(G, Original);
  if (!A.Supported) {
    R.Unsupported = true;
    R.Reason = "original: " + A.Reason;
    return Finish();
  }
  BuildResult B = buildValueGraph(G, Optimized);
  if (!B.Supported) {
    R.Unsupported = true;
    R.Reason = "optimized: " + B.Reason;
    return Finish();
  }
  R.GraphNodes = G.size();

  // Best case (§2): hash-consing alone already merged the state pointers.
  if (G.find(A.Ret) == G.find(B.Ret)) {
    R.Validated = true;
    R.EqualOnConstruction = true;
    R.LiveNodes = G.countRoots();
    return Finish();
  }

  NormalizeStats S = normalizeToFixpoint(G, {A.Ret, B.Ret}, Config);
  R.Iterations = S.Iterations;
  R.Rewrites = S.Rewrites;
  R.SharingMerges = S.SharingMerges;
  R.Validated = G.find(A.Ret) == G.find(B.Ret);
  if (!R.Validated)
    R.Reason = S.BudgetExhausted ? "fixpoint budget exhausted"
                                 : "graphs did not merge";
  R.LiveNodes = G.countRoots();
  return Finish();
}
