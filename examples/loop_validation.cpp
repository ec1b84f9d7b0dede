//===- loop_validation.cpp - μ/η nodes and loop optimizations in action --------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Walks through the paper's §3.3/§4 loop story on real IR: a while loop
// becomes a μ (loop stream) guarded by an η (exit selection); LICM, loop
// deletion and loop unswitching each reshape the graph, and the η/μ and
// commuting rules bring the two sides back together. Each step prints the
// value graphs so you can watch the normalization happen.
//
//   $ ./loop_validation
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "normalize/Normalizer.h"
#include "opt/Pass.h"
#include "validator/Validator.h"
#include "vg/GraphBuilder.h"

#include <cstdio>

using namespace llvmmd;

namespace {

void showCase(Context &Ctx, const char *Title, const char *Src,
              const char *Pipeline, unsigned Mask = RS_Paper) {
  std::printf("\n=== %s (pipeline: %s) ===\n", Title, Pipeline);
  ParseResult PR = parseModule(Ctx, Src);
  if (!PR) {
    std::printf("parse error: %s\n", PR.Error.c_str());
    return;
  }
  auto Opt = cloneModule(*PR.M);
  PassManager PM;
  PM.parsePipeline(Pipeline);
  Function *FO = Opt->definedFunctions().front();
  bool Changed = PM.run(*FO);
  std::printf("--- optimized (%s) ---\n%s", Changed ? "changed" : "unchanged",
              printFunction(*FO).c_str());

  ValueGraph G;
  const Function *FI = PR.M->definedFunctions().front();
  BuildResult A = buildValueGraph(G, *FI);
  BuildResult B = buildValueGraph(G, *FO);
  std::printf("--- value graph before normalization ---\n%s",
              G.dump({A.Ret, B.Ret}).c_str());

  RuleConfig Rules;
  Rules.Mask = Mask;
  Rules.M = PR.M.get();
  NormalizeStats S = normalizeToFixpoint(G, {A.Ret, B.Ret}, Rules);
  std::printf("--- after %u rewrites ---\n%s", S.Rewrites,
              G.dump({A.Ret, B.Ret}).c_str());
  std::printf("==> %s\n", G.find(A.Ret) == G.find(B.Ret)
                              ? "VALIDATED"
                              : "NOT validated");
}

} // namespace

int main() {
  Context Ctx;

  // 1. The paper's LICM example: the loop-invariant a+3 is recomputed
  //    every iteration; after LICM + loop deletion only a+3 remains.
  //    Rules (8)/(9) collapse η(c, μ(a+3, a+3)).
  showCase(Ctx, "loop-invariant code motion + loop deletion", R"(
define i32 @f(i32 %a, i32 %n) {
entry:
  %x0 = add i32 %a, 3
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %x = phi i32 [ %x0, %entry ], [ %x2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %out
b:
  %x2 = add i32 %a, 3
  %i2 = add i32 %i, 1
  br label %h
out:
  ret i32 %x
}
)",
           "licm,loop-deletion");

  // 2. A loop whose bound folds to zero: SCCP + loop deletion erase it;
  //    the first-iteration form of rule (7) validates.
  showCase(Ctx, "constant-bound dead loop", R"(
define i32 @f(i32 %a) {
entry:
  %n = and i32 48, 15
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %s = phi i32 [ %a, %entry ], [ %s2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %out
b:
  %s2 = add i32 %s, %i
  %i2 = add i32 %i, 1
  br label %h
out:
  ret i32 %s
}
)",
           "sccp,loop-deletion");

  // 3. Loop unswitching: the invariant branch on %p is hoisted by
  //    duplicating the loop; γ-over-μ reconciliation is the Commuting
  //    rule set's job.
  showCase(Ctx, "loop unswitching", R"(
define i32 @f(i32 %n, i1 %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %l ]
  %s = phi i32 [ 0, %entry ], [ %s2, %l ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  br i1 %p, label %bt, label %be
bt:
  %vt = add i32 %s, %i
  br label %j
be:
  %ve = sub i32 %s, %i
  br label %j
j:
  %s2 = phi i32 [ %vt, %bt ], [ %ve, %be ]
  br label %l
l:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
           "loop-unswitch");
  return 0;
}
