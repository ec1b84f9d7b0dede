//===- LoopUnswitch.cpp - Loop unswitching -----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hoists a loop-invariant conditional out of a loop by duplicating the
/// loop: the preheader branches on the invariant condition to a "true"
/// version (branch folded to its true side) or a "false" version. The
/// validator sees two different loop structures whose value graphs must be
/// reconciled by distributing γ over μ/η — the Commuting rule set.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/Dominators.h"
#include "analysis/FunctionAnalyses.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloning.h"
#include "ir/Module.h"
#include "opt/Local.h"
#include "opt/LoopUtils.h"

using namespace llvmmd;

namespace {

class LoopUnswitchPass : public FunctionPass {
public:
  const char *getName() const override { return "loop-unswitch"; }

  bool run(Function &F, FunctionAnalyses &FA) const override {
    if (F.isDeclaration())
      return false;
    bool Changed = false;
    // Unswitch at most a few times per function to bound code growth
    // (LLVM uses a size threshold; we use a count).
    for (unsigned Round = 0; Round < 2; ++Round) {
      std::shared_ptr<LoopInfo> LI = FA.loopInfo(F);
      if (LI->isIrreducible())
        return Changed;
      bool Did = false;
      for (Loop *L : LI->getLoopsInnermostFirst()) {
        if (tryUnswitch(F, FA, *L)) {
          Changed = true;
          Did = true;
          break; // analyses stale
        }
      }
      if (!Did)
        break;
    }
    return Changed;
  }

private:
  BranchInst *findInvariantBranch(Loop &L) const {
    for (BasicBlock *BB : L.getBlocks()) {
      auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      if (!isDefinedOutsideLoop(Br->getCondition(), L))
        continue;
      // Interior branch only: both successors stay in the loop.
      if (!L.contains(Br->getSuccessor(0)) || !L.contains(Br->getSuccessor(1)))
        continue;
      if (Br->getSuccessor(0) == Br->getSuccessor(1))
        continue;
      return Br;
    }
    return nullptr;
  }

  /// Rewrites uses of loop-defined values outside \p L to go through φs in
  /// the unique exit block. Returns false when the loop has several exit
  /// blocks or a value does not dominate the exit (we stay conservative).
  bool promoteExitUsesToPhis(Function &F, FunctionAnalyses &FA, Loop &L) const {
    if (L.getExitBlocks().size() != 1)
      return false;
    BasicBlock *Exit = L.getExitBlocks().front();
    // The rewrite is only straightforward when every exiting edge comes
    // from a block where the value is in scope; with a single exiting
    // block that is simply "defined before the exit branch".
    if (L.getExitingBlocks().size() != 1)
      return false;
    BasicBlock *Exiting = L.getExitingBlocks().front();
    if (Exit->predecessors().size() != 1)
      return false; // a φ here would need entries for unrelated edges
    std::shared_ptr<const DominatorTree> DT = FA.domTree(F);

    for (BasicBlock *BB : L.getBlocks()) {
      for (Instruction *I : *BB) {
        // Gather outside uses that are not already exit phis.
        std::vector<Instruction *> OutsideUsers;
        for (User *U : I->users()) {
          auto *UI = dyn_cast<Instruction>(U);
          if (!UI || L.contains(UI->getParent()))
            continue;
          if (auto *P = dyn_cast<PhiNode>(UI))
            if (P->getParent() == Exit)
              continue;
          OutsideUsers.push_back(UI);
        }
        if (OutsideUsers.empty())
          continue;
        if (!DT->dominates(BB, Exiting))
          return false;
        auto *P = I->getFunction()->bodyArena().create<PhiNode>(I->getType());
        P->setName(I->getName() + ".lcssa");
        Exit->insert(Exit->begin(), P);
        P->addIncoming(I, Exiting);
        for (Instruction *UI : OutsideUsers)
          UI->replaceUsesOfWith(I, P);
      }
    }
    return true;
  }

  bool tryUnswitch(Function &F, FunctionAnalyses &FA, Loop &L) const {
    // Bound duplication cost.
    size_t LoopSize = 0;
    for (BasicBlock *BB : L.getBlocks())
      LoopSize += BB->size();
    if (LoopSize > 512)
      return false;

    BranchInst *Br = findInvariantBranch(L);
    if (!Br)
      return false;
    if (!loopValuesEscapeOnlyViaExitPhis(L)) {
      // Try to reroute direct outside uses through exit-block φs (a
      // single-exit mini-LCSSA), which makes the duplication patchable.
      if (!promoteExitUsesToPhis(F, FA, L))
        return false;
    }
    BasicBlock *Preheader = ensurePreheader(F, L);
    if (!Preheader)
      return false;

    // Clone the loop body.
    std::vector<BasicBlock *> Body(L.getBlocks().begin(), L.getBlocks().end());
    // BMap holds each body block's copy by block number.
    std::vector<BasicBlock *> BMap(F.getMaxBlockNumber(), nullptr);
    ValueMap VMap;
    VMap.reserve(LoopSize);
    std::vector<BasicBlock *> Clones = cloneBlocks(F, Body, VMap, ".us");
    for (size_t I = 0; I != Body.size(); ++I)
      BMap[Body[I]->getNumber()] = Clones[I];

    // Patch exit-block phis: each loop entry gains a twin from the clone.
    for (BasicBlock *Exit : L.getExitBlocks()) {
      for (PhiNode *P : Exit->phis()) {
        unsigned OrigN = P->getNumIncoming();
        for (unsigned K = 0; K < OrigN; ++K) {
          BasicBlock *In = P->getIncomingBlock(K);
          if (!L.contains(In))
            continue;
          Value *V = P->getIncomingValue(K);
          Value *const *ClonedV = VMap.find(flatKey(V));
          P->addIncoming(ClonedV ? *ClonedV : V, BMap[In->getNumber()]);
        }
      }
    }

    // Original keeps the true side; the clone keeps the false side.
    Value *Cond = Br->getCondition();
    auto *ClonedBr = cast<BranchInst>(*VMap.find(flatKey(Br)));
    BasicBlock *TrueBB = Br->getSuccessor(0);
    BasicBlock *FalseBB = Br->getSuccessor(1);
    removePhiEntriesFor(FalseBB, Br->getParent());
    Br->makeUnconditional(TrueBB);
    BasicBlock *ClonedTrue = ClonedBr->getSuccessor(0);
    removePhiEntriesFor(ClonedTrue, ClonedBr->getParent());
    ClonedBr->makeUnconditional(ClonedBr->getSuccessor(1));

    // The preheader now dispatches on the invariant condition.
    BasicBlock *Header = L.getHeader();
    BasicBlock *ClonedHeader = BMap[Header->getNumber()];
    auto *PreBr = cast<BranchInst>(Preheader->getTerminator());
    Preheader->erase(PreBr);
    Preheader->append(F.bodyArena().create<BranchInst>(
        Cond, Header, ClonedHeader,
        F.getParent()->getContext().getVoidTy()));
    return true;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createLoopUnswitchPass() {
  return std::make_unique<LoopUnswitchPass>();
}
} // namespace llvmmd
