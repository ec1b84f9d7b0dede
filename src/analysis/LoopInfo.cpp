//===- LoopInfo.cpp - Natural loop detection ----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <algorithm>

using namespace llvmmd;

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) : F(F) {
  const std::vector<BasicBlock *> &RPO = DT.getRPO();
  const unsigned NumBlocks = F.getMaxBlockNumber();

  // Collect back edges by the RPO index of their target; detect
  // irreducibility: a retreating edge (target earlier in RPO) whose target
  // does not dominate the source.
  std::vector<std::vector<BasicBlock *>> BackEdges(RPO.size());
  for (unsigned I = 0, E = RPO.size(); I != E; ++I) {
    BasicBlock *BB = RPO[I];
    for (unsigned S = 0, NS = BB->getNumSuccessors(); S != NS; ++S) {
      BasicBlock *Succ = BB->getSuccessor(S);
      int SuccIdx = DT.getRPONumber(Succ);
      if (SuccIdx < 0 || static_cast<unsigned>(SuccIdx) > I)
        continue;
      if (DT.dominates(Succ, BB))
        BackEdges[SuccIdx].push_back(BB);
      else
        Irreducible = true;
    }
  }
  if (Irreducible)
    return;

  // Build a loop per header, in RPO order of the headers. Blocks = header +
  // backward closure of latches, sorted into RPO afterwards so getBlocks()
  // iteration is deterministic program order.
  auto ByRPO = [&](BasicBlock *A, BasicBlock *B) {
    return DT.getRPONumber(A) < DT.getRPONumber(B);
  };
  for (unsigned H = 0, E = RPO.size(); H != E; ++H) {
    if (BackEdges[H].empty())
      continue;
    auto L = std::make_unique<Loop>();
    BasicBlock *Header = RPO[H];
    L->Header = Header;
    L->Latches = std::move(BackEdges[H]);
    L->BlockSet.assign(NumBlocks, false);
    L->BlockSet[Header->getNumber()] = true;
    L->Blocks.push_back(Header);
    std::vector<BasicBlock *> Work(L->Latches.begin(), L->Latches.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (L->BlockSet[BB->getNumber()])
        continue;
      L->BlockSet[BB->getNumber()] = true;
      L->Blocks.push_back(BB);
      for (BasicBlock *Pred : DT.predecessors(BB))
        if (Pred != Header)
          Work.push_back(Pred);
    }
    std::sort(L->Blocks.begin(), L->Blocks.end(), ByRPO);
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B iff B contains A's header and A != B.
  // Sort by block count so parents (larger) are matched after children;
  // ties break by header RPO index, never by pointer.
  std::vector<Loop *> BySize;
  for (auto &L : Loops)
    BySize.push_back(L.get());
  std::sort(BySize.begin(), BySize.end(), [&](Loop *A, Loop *B) {
    if (A->Blocks.size() != B->Blocks.size())
      return A->Blocks.size() < B->Blocks.size();
    return ByRPO(A->Header, B->Header);
  });
  for (unsigned I = 0, E = BySize.size(); I != E; ++I) {
    Loop *Inner = BySize[I];
    for (unsigned J = I + 1; J != E; ++J) {
      Loop *Outer = BySize[J];
      if (Outer->contains(Inner->Header) && Outer != Inner) {
        Inner->Parent = Outer;
        Outer->SubLoops.push_back(Inner);
        break;
      }
    }
  }
  for (auto &L : Loops)
    if (!L->Parent)
      TopLevel.push_back(L.get());

  // Innermost-loop map: assign smaller loops first, never overwrite.
  BlockMap.assign(NumBlocks, nullptr);
  for (Loop *L : BySize)
    for (BasicBlock *BB : L->Blocks)
      if (!BlockMap[BB->getNumber()])
        BlockMap[BB->getNumber()] = L;

  // Preheaders, entering blocks, exits.
  for (auto &L : Loops) {
    for (BasicBlock *Pred : DT.predecessors(L->Header))
      if (!L->contains(Pred))
        L->Entering.push_back(Pred);
    if (L->Entering.size() == 1 &&
        L->Entering.front()->getNumSuccessors() == 1)
      L->Preheader = L->Entering.front();

    // Blocks are in RPO, so Exiting and Exits come out in deterministic
    // discovery order (first-seen wins for the deduplicated exit list).
    for (BasicBlock *BB : L->Blocks) {
      bool IsExiting = false;
      for (unsigned S = 0, NS = BB->getNumSuccessors(); S != NS; ++S) {
        BasicBlock *Succ = BB->getSuccessor(S);
        if (L->contains(Succ))
          continue;
        IsExiting = true;
        if (std::find(L->Exits.begin(), L->Exits.end(), Succ) ==
            L->Exits.end())
          L->Exits.push_back(Succ);
      }
      if (IsExiting)
        L->Exiting.push_back(BB);
    }
  }
}

std::vector<Loop *> LoopInfo::getLoopsInnermostFirst() const {
  std::vector<Loop *> Out;
  // Post-order over the loop forest.
  struct Frame {
    Loop *L;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  for (Loop *Top : TopLevel) {
    Stack.push_back({Top, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Next < F.L->getSubLoops().size()) {
        Stack.push_back({F.L->getSubLoops()[F.Next++], 0});
        continue;
      }
      Out.push_back(F.L);
      Stack.pop_back();
    }
  }
  return Out;
}
