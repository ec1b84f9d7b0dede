//===- LoopDeletion.cpp - Dead loop removal ---------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deletes loops that compute nothing observable: no stores or
/// memory-writing calls inside, and every value flowing out of the loop
/// through exit-block phis is loop-invariant. Like the paper (and LLVM 2.x)
/// we work under the assumption that the input terminates: the validator's
/// μ/η rules (7)-(9) are exactly what makes the deleted loop's value graph
/// collapse to its initial values.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/FunctionAnalyses.h"
#include "analysis/LoopInfo.h"
#include "ir/Module.h"
#include "opt/Local.h"
#include "opt/LoopUtils.h"

#include <set>

using namespace llvmmd;

namespace {

class LoopDeletionPass : public FunctionPass {
public:
  const char *getName() const override { return "loop-deletion"; }

  bool run(Function &F, FunctionAnalyses &FA) const override {
    if (F.isDeclaration())
      return false;
    bool Changed = false;
    // Deleting a loop edits the CFG, so the cache rebuilds the analyses;
    // retry until nothing more can be deleted.
    bool Progress = true;
    while (Progress) {
      Progress = false;
      std::shared_ptr<LoopInfo> LI = FA.loopInfo(F);
      if (LI->isIrreducible())
        return Changed;
      for (Loop *L : LI->getLoopsInnermostFirst()) {
        if (tryDelete(F, *L)) {
          Changed = true;
          Progress = true;
          break; // analyses are stale now
        }
      }
    }
    return Changed;
  }

private:
  bool tryDelete(Function &F, Loop &L) const {
    if (!L.getSubLoops().empty())
      return false; // delete innermost first; parents become eligible later
    if (L.getExitBlocks().size() != 1)
      return false;
    BasicBlock *Exit = L.getExitBlocks().front();

    // No observable effects inside.
    for (BasicBlock *BB : L.getBlocks())
      for (const Instruction *I : *BB)
        if (I->hasSideEffects())
          return false;

    // Every outside use must be an exit-block phi whose incoming value is
    // loop-invariant (so the value survives deletion unchanged).
    for (BasicBlock *BB : L.getBlocks()) {
      for (const Instruction *I : *BB) {
        for (const User *U : I->users()) {
          const auto *UI = dyn_cast<Instruction>(U);
          if (!UI || L.contains(UI->getParent()))
            continue;
          return false; // a loop-defined value is observable after the loop
        }
      }
    }
    for (const PhiNode *P : Exit->phis()) {
      for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
        if (!L.contains(P->getIncomingBlock(K)))
          continue;
        if (!isDefinedOutsideLoop(P->getIncomingValue(K), L))
          return false;
      }
    }

    BasicBlock *Preheader = ensurePreheader(F, L);
    if (!Preheader)
      return false;

    // Rewrite exit phis: all loop entries collapse to one preheader entry.
    for (PhiNode *P : Exit->phis()) {
      Value *FromLoop = nullptr;
      for (unsigned K = 0; K < P->getNumIncoming();) {
        if (L.contains(P->getIncomingBlock(K))) {
          assert((!FromLoop || FromLoop == P->getIncomingValue(K)) &&
                 "diverging invariant exit values");
          FromLoop = P->getIncomingValue(K);
          P->removeIncoming(K);
        } else {
          ++K;
        }
      }
      assert(FromLoop && "exit phi had no loop entry");
      P->addIncoming(FromLoop, Preheader);
    }

    // Redirect the preheader to the exit and delete the loop body.
    auto *Br = cast<BranchInst>(Preheader->getTerminator());
    Br->makeUnconditional(Exit);
    std::vector<BasicBlock *> Doomed(L.getBlocks().begin(),
                                     L.getBlocks().end());
    for (BasicBlock *BB : Doomed)
      for (Instruction *I : *BB)
        I->dropAllReferences();
    for (BasicBlock *BB : Doomed) {
      for (Instruction *I : *BB)
        if (!I->use_empty())
          I->replaceAllUsesWith(
              F.getParent()->getContext().getUndef(I->getType()));
      F.eraseBlock(BB);
    }
    return true;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createLoopDeletionPass() {
  return std::make_unique<LoopDeletionPass>();
}
} // namespace llvmmd
