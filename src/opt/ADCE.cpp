//===- ADCE.cpp - Aggressive dead code elimination --------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness-seeded dead code elimination: only instructions transitively
/// required by side effects, returns or control flow survive. Subsumes
/// plain DCE and dead-instruction elimination, as in the paper's pipeline.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Module.h"
#include "support/FlatMap.h"

#include <vector>

using namespace llvmmd;

namespace {

class ADCEPass : public FunctionPass {
public:
  const char *getName() const override { return "adce"; }

  bool run(Function &F, FunctionAnalyses &) const override {
    if (F.isDeclaration())
      return false;

    FlatMap<bool> Live;
    Live.reserve(F.getInstructionCount());
    std::vector<Instruction *> Worklist;
    auto MarkLive = [&](Instruction *I) {
      if (Live.insert(flatKey(I)))
        Worklist.push_back(I);
    };

    // Roots: terminators, stores, calls that may write memory.
    for (const auto &BB : F.blocks())
      for (Instruction *I : *BB)
        if (I->isTerminator() || I->hasSideEffects())
          MarkLive(I);

    while (!Worklist.empty()) {
      Instruction *I = Worklist.back();
      Worklist.pop_back();
      for (Value *Op : I->operands())
        if (auto *OpI = dyn_cast<Instruction>(Op))
          MarkLive(OpI);
    }

    // Delete everything not live. Break references first so mutually-dead
    // cycles (phis through back edges) can be removed.
    bool Changed = false;
    for (const auto &BB : F.blocks())
      for (Instruction *I : *BB)
        if (!Live.contains(flatKey(I))) {
          I->dropAllReferences();
          Changed = true;
        }
    if (!Changed)
      return false;
    for (const auto &BB : F.blocks())
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = *It++;
        if (Live.contains(flatKey(I)))
          continue;
        assert(I->use_empty() && "dead instruction still used by live code");
        // Unlink only: the body arena reclaims the storage at dropBody.
        BB->remove(I);
      }
    return true;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createADCEPass() {
  return std::make_unique<ADCEPass>();
}
} // namespace llvmmd
