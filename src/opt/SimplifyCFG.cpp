//===- SimplifyCFG.cpp - CFG cleanup pass ----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds constant conditional branches, deletes unreachable blocks, merges
/// straight-line block chains, and removes single-entry phis. Used both as
/// a standalone pass and as cleanup inside SCCP and the loop passes.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Module.h"
#include "opt/Local.h"

using namespace llvmmd;

namespace {

class SimplifyCFGPass : public FunctionPass {
public:
  const char *getName() const override { return "simplifycfg"; }

  bool run(Function &F, FunctionAnalyses &) const override {
    if (F.isDeclaration())
      return false;
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      LocalChange |= foldConstantBranches(F);
      LocalChange |= removeUnreachableBlocks(F) > 0;
      LocalChange |= foldSingleEntryPhis(F) > 0;
      LocalChange |= mergeChains(F);
      Changed |= LocalChange;
    }
    return Changed;
  }

private:
  bool foldConstantBranches(Function &F) const {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      // br i1 c, %t, %t  ==>  br %t
      if (Br->getSuccessor(0) == Br->getSuccessor(1)) {
        BasicBlock *T = Br->getSuccessor(0);
        // The phi entries for the two copies of the edge collapse to one.
        for (PhiNode *P : T->phis()) {
          int Idx = P->getBlockIndex(BB);
          // Remove one duplicate entry if present twice.
          int Count = 0;
          for (unsigned K = 0; K < P->getNumIncoming(); ++K)
            if (P->getIncomingBlock(K) == BB)
              ++Count;
          if (Count > 1 && Idx >= 0)
            P->removeIncoming(static_cast<unsigned>(Idx));
        }
        Br->makeUnconditional(T);
        Changed = true;
        continue;
      }
      const auto *C = dyn_cast<ConstantInt>(Br->getCondition());
      if (!C)
        continue;
      BasicBlock *Live = C->isTrue() ? Br->getSuccessor(0) : Br->getSuccessor(1);
      BasicBlock *Dead = C->isTrue() ? Br->getSuccessor(1) : Br->getSuccessor(0);
      removePhiEntriesFor(Dead, BB);
      Br->makeUnconditional(Live);
      Changed = true;
    }
    return Changed;
  }

  /// Merges BB into its unique predecessor when the predecessor jumps
  /// unconditionally to BB and BB is the predecessor's only successor.
  bool mergeChains(Function &F) const {
    bool Changed = false;
    bool Merged = true;
    while (Merged) {
      Merged = false;
      for (const auto &BBPtr : F.blocks()) {
        BasicBlock *BB = BBPtr;
        if (BB == F.getEntryBlock())
          continue;
        std::vector<BasicBlock *> Preds = BB->predecessors();
        if (Preds.size() != 1)
          continue;
        BasicBlock *Pred = Preds.front();
        auto *PredBr = dyn_cast_or_null<BranchInst>(Pred->getTerminator());
        if (!PredBr || PredBr->isConditional() || Pred == BB)
          continue;
        assert(PredBr->getSuccessor(0) == BB && "inconsistent CFG");
        // Single-entry phis in BB fold to the incoming value.
        while (auto *P = dyn_cast_or_null<PhiNode>(BB->front())) {
          assert(P->getNumIncoming() == 1 && "phi/pred mismatch");
          P->replaceAllUsesWith(P->getIncomingValue(0));
          BB->erase(P);
        }
        // Splice instructions: delete Pred's branch, move BB's body.
        Pred->erase(PredBr);
        while (Instruction *I = BB->front()) {
          BB->remove(I);
          Pred->append(I);
        }
        // Successor phis now come from Pred.
        for (BasicBlock *Succ : Pred->successors())
          for (PhiNode *P : Succ->phis()) {
            int Idx = P->getBlockIndex(BB);
            if (Idx >= 0)
              P->setIncomingBlock(static_cast<unsigned>(Idx), Pred);
          }
        F.eraseBlock(BB);
        Merged = true;
        Changed = true;
        break; // block list invalidated; restart scan
      }
    }
    return Changed;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createSimplifyCFGPass() {
  return std::make_unique<SimplifyCFGPass>();
}
} // namespace llvmmd
