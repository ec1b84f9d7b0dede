//===- sharing_strategies.cpp - §5.4 ablation: sharing maximization ----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The paper compares its simple parallel-unification algorithm against a
// Hopcroft-style partitioning algorithm and reports that they validate
// roughly the same fraction. This harness reproduces that comparison on
// the GVN + loop-unswitch workload (the ones that stress cycle matching):
// both strategies validate the same number of pairs, and Simple, the
// default, is the cheaper one. It is also a check: it exits 1 when the
// two overall validated counts differ.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

using namespace llvmmd;
using namespace llvmmd::bench;

namespace {

/// Optimize + validate one profile under \p Strategy, entirely on the
/// engine: the strategy rides in EngineConfig.Rules.Strategy, and the
/// verdict cache keys on it, so one engine can serve both ablation legs
/// without cross-talk.
RunStats runWithStrategy(const BenchmarkProfile &Profile,
                         SharingStrategy Strategy,
                         ValidationEngine &Engine) {
  RuleConfig Rules = Engine.getRules();
  Rules.Mask = RS_Paper;
  Rules.Strategy = Strategy;
  Engine.setRules(Rules);

  Context Ctx;
  auto Orig = generateBenchmark(Ctx, Profile);
  return statsFromReport(Engine.run(*Orig, "gvn,loop-unswitch").Report);
}

} // namespace

int main() {
  printHeader("§5.4: sharing maximization strategies (gvn,loop-unswitch)");
  std::printf("%-12s | %9s %9s | %9s %9s\n", "program", "simple", "time",
              "partition", "time");
  ValidationEngine Engine;
  unsigned T[2] = {0, 0}, V[2] = {0, 0};
  for (const BenchmarkProfile &P : getPaperSuite()) {
    RunStats A = runWithStrategy(P, SharingStrategy::Simple, Engine);
    RunStats B = runWithStrategy(P, SharingStrategy::Partition, Engine);
    T[0] += A.Transformed;
    V[0] += A.Validated;
    T[1] += B.Transformed;
    V[1] += B.Validated;
    std::printf("%-12s | %8.1f%% %7.1fms | %8.1f%% %7.1fms\n", P.Name.c_str(),
                A.rate(), A.Microseconds / 1000.0, B.rate(),
                B.Microseconds / 1000.0);
  }
  auto Pct = [](unsigned V2, unsigned T2) {
    return T2 ? 100.0 * V2 / T2 : 100.0;
  };
  std::printf("%-12s | %8.1f%%           | %8.1f%%\n", "OVERALL",
              Pct(V[0], T[0]), Pct(V[1], T[1]));
  if (V[0] != V[1]) {
    std::printf("\nFAIL: partition validated %u pairs, simple %u (paper: "
                "both algorithms give roughly the same rate)\n",
                V[1], V[0]);
    return 1;
  }
  std::printf("\n(paper: both algorithms give roughly the same rate; "
              "measured: both validate %u of %u pairs)\n",
              V[0], T[0]);
  return 0;
}
