//===- Dominators.cpp - Dominator tree ---------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

using namespace llvmmd;

DominatorTree::DominatorTree(const Function &F) {
  computeRPO(F, RPO);
  Index.assign(F.getMaxBlockNumber(), -1);
  if (RPO.empty())
    return;
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    Index[RPO[I]->getNumber()] = static_cast<int>(I);
  Nodes.resize(Index.size());

  // Reachable predecessors, from the successor lists in function block
  // order: unreachable predecessors never enter the intersection, and a
  // block outside the function (malformed IR) is not in the RPO. One pass
  // counts each block's predecessors, a second fills the rows in the same
  // order.
  auto ForEachEdge = [&](auto &&Visit) {
    for (BasicBlock *BB : F.blocks()) {
      if (!isReachable(BB))
        continue;
      for (unsigned S = 0, E = BB->getNumSuccessors(); S != E; ++S) {
        BasicBlock *Succ = BB->getSuccessor(S);
        if (!isReachable(Succ) || (S == 1 && BB->getSuccessor(0) == Succ))
          continue;
        Visit(BB, Nodes[Succ->getNumber()]);
      }
    }
  };
  unsigned NumEdges = 0;
  ForEachEdge([&](BasicBlock *, NodeInfo &N) { ++N.PredEnd, ++NumEdges; });
  unsigned Next = 0;
  for (BasicBlock *BB : RPO) {
    NodeInfo &N = Nodes[BB->getNumber()];
    N.PredBegin = Next;
    Next += N.PredEnd;
    N.PredEnd = N.PredBegin;
  }
  PredList.resize(NumEdges);
  ForEachEdge([&](BasicBlock *BB, NodeInfo &N) { PredList[N.PredEnd++] = BB; });

  // Cooper-Harvey-Kennedy: iterate to fixpoint over RPO.
  std::vector<int> IDom(RPO.size(), -1);
  IDom[0] = 0;
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1, E = RPO.size(); I != E; ++I) {
      int NewIDom = -1;
      for (BasicBlock *Pred : predecessors(RPO[I])) {
        int P = Index[Pred->getNumber()];
        if (IDom[P] < 0)
          continue; // not yet processed
        NewIDom = NewIDom < 0 ? P : Intersect(NewIDom, P);
      }
      if (NewIDom >= 0 && IDom[I] != NewIDom) {
        IDom[I] = NewIDom;
        Changed = true;
      }
    }
  }

  // Children rows, filled in RPO order like the predecessor rows.
  for (unsigned I = 1, E = RPO.size(); I != E; ++I) {
    BasicBlock *Parent = RPO[IDom[I]];
    Nodes[RPO[I]->getNumber()].IDom = Parent;
    ++Nodes[Parent->getNumber()].ChildEnd;
  }
  Next = 0;
  for (BasicBlock *BB : RPO) {
    NodeInfo &N = Nodes[BB->getNumber()];
    N.ChildBegin = Next;
    Next += N.ChildEnd;
    N.ChildEnd = N.ChildBegin;
  }
  ChildList.resize(RPO.size() - 1);
  for (unsigned I = 1, E = RPO.size(); I != E; ++I)
    ChildList[Nodes[RPO[IDom[I]]->getNumber()].ChildEnd++] = RPO[I];

  // DFS numbering for O(1) dominance queries.
  unsigned Clock = 0;
  struct Frame {
    NodeInfo *N;
    unsigned Next;
  };
  std::vector<Frame> Stack;
  Stack.reserve(RPO.size());
  Stack.push_back({&Nodes[RPO[0]->getNumber()], 0});
  Stack.back().N->DFSIn = Clock++;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.N->ChildBegin + Top.Next < Top.N->ChildEnd) {
      NodeInfo *Child =
          &Nodes[ChildList[Top.N->ChildBegin + Top.Next++]->getNumber()];
      Child->DFSIn = Clock++;
      Stack.push_back({Child, 0});
      continue;
    }
    Top.N->DFSOut = Clock++;
    Stack.pop_back();
  }
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  const NodeInfo *N = node(BB);
  return N ? N->IDom : nullptr;
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  const NodeInfo *NA = node(A);
  const NodeInfo *NB = node(B);
  if (!NA || !NB)
    return false;
  return NA->DFSIn <= NB->DFSIn && NB->DFSOut <= NA->DFSOut;
}

DominatorTree::BlockRange
DominatorTree::getChildren(const BasicBlock *BB) const {
  const NodeInfo *N = node(BB);
  if (!N)
    return {};
  return {ChildList.data() + N->ChildBegin, N->ChildEnd - N->ChildBegin};
}

DominatorTree::BlockRange
DominatorTree::predecessors(const BasicBlock *BB) const {
  const NodeInfo *N = node(BB);
  if (!N)
    return {};
  return {PredList.data() + N->PredBegin, N->PredEnd - N->PredBegin};
}

std::vector<BasicBlock *> DominatorTree::preorder() const {
  std::vector<BasicBlock *> Out;
  if (RPO.empty())
    return Out;
  std::vector<BasicBlock *> Stack{RPO[0]};
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    Out.push_back(BB);
    BlockRange Kids = getChildren(BB);
    for (size_t K = Kids.size(); K-- > 0;)
      Stack.push_back(Kids[K]);
  }
  return Out;
}
