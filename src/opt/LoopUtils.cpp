//===- LoopUtils.cpp - Shared loop transformation helpers -------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "opt/LoopUtils.h"

#include "analysis/LoopInfo.h"
#include "ir/Module.h"

using namespace llvmmd;

BasicBlock *llvmmd::ensurePreheader(Function &F, Loop &L) {
  if (BasicBlock *P = L.getPreheader())
    return P;
  const std::vector<BasicBlock *> &Entering = L.getEntering();
  if (Entering.empty())
    return nullptr;

  Context &Ctx = F.getParent()->getContext();
  BasicBlock *Header = L.getHeader();
  BasicBlock *Pre = F.createBlock(Header->getName() + ".preheader");

  // Header phis: merge the entering entries into the preheader.
  for (PhiNode *P : Header->phis()) {
    Value *Merged = nullptr;
    if (Entering.size() == 1) {
      Merged = P->getIncomingValueForBlock(Entering.front());
    } else {
      auto *NewPhi = F.bodyArena().create<PhiNode>(P->getType());
      NewPhi->setName(P->getName() + ".ph");
      for (BasicBlock *E : Entering)
        NewPhi->addIncoming(P->getIncomingValueForBlock(E), E);
      Pre->append(NewPhi);
      Merged = NewPhi;
    }
    // Drop old entering entries; add the single preheader entry.
    for (BasicBlock *E : Entering) {
      int Idx = P->getBlockIndex(E);
      assert(Idx >= 0 && "entering block not in phi");
      P->removeIncoming(static_cast<unsigned>(Idx));
    }
    P->addIncoming(Merged, Pre);
  }

  Pre->append(F.bodyArena().create<BranchInst>(Header, Ctx.getVoidTy()));

  // Redirect entering edges.
  for (BasicBlock *E : Entering) {
    auto *Br = cast<BranchInst>(E->getTerminator());
    for (unsigned I = 0, NumSuccs = Br->getNumSuccessors(); I != NumSuccs; ++I)
      if (Br->getSuccessor(I) == Header)
        Br->setSuccessor(I, Pre);
  }

  L.addPreheader(Pre);
  return Pre;
}

bool llvmmd::isDefinedOutsideLoop(const Value *V, const Loop &L) {
  const auto *I = dyn_cast<Instruction>(V);
  if (!I)
    return true;
  return !L.contains(I->getParent());
}

bool llvmmd::loopValuesEscapeOnlyViaExitPhis(const Loop &L) {
  for (BasicBlock *BB : L.getBlocks()) {
    for (const Instruction *I : *BB) {
      for (const User *U : I->users()) {
        const auto *UI = dyn_cast<Instruction>(U);
        if (!UI)
          return false;
        if (L.contains(UI->getParent()))
          continue;
        const auto *P = dyn_cast<PhiNode>(UI);
        if (!P)
          return false;
        bool InExit = false;
        for (BasicBlock *Exit : L.getExitBlocks())
          if (P->getParent() == Exit)
            InExit = true;
        if (!InExit)
          return false;
      }
    }
  }
  return true;
}
