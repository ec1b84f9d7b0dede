//===- Dominators.cpp - Dominator tree ---------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

using namespace llvmmd;

const std::vector<BasicBlock *> DominatorTree::Empty;

DominatorTree::DominatorTree(const Function &F) {
  RPO = computeRPO(F);
  Index.assign(F.getMaxBlockNumber(), -1);
  if (RPO.empty())
    return;
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    Index[RPO[I]->getNumber()] = static_cast<int>(I);
  Nodes.resize(Index.size());

  // Reachable predecessors, built once from the successor lists in
  // function block order: unreachable predecessors never enter the
  // intersection, and a block outside the function (malformed IR) is not
  // in the RPO.
  for (BasicBlock *BB : F.blocks()) {
    if (!isReachable(BB))
      continue;
    for (unsigned S = 0, E = BB->getNumSuccessors(); S != E; ++S) {
      BasicBlock *Succ = BB->getSuccessor(S);
      if (!isReachable(Succ) || (S == 1 && BB->getSuccessor(0) == Succ))
        continue;
      Nodes[Succ->getNumber()].Preds.push_back(BB);
    }
  }

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
      for (BasicBlock *Pred : Nodes[RPO[I]->getNumber()].Preds) {
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

  for (unsigned I = 1, E = RPO.size(); I != E; ++I) {
    BasicBlock *Parent = RPO[IDom[I]];
    Nodes[RPO[I]->getNumber()].IDom = Parent;
    Nodes[Parent->getNumber()].Children.push_back(RPO[I]);
  }

  // DFS numbering for O(1) dominance queries.
  unsigned Clock = 0;
  struct Frame {
    NodeInfo *N;
    size_t Next = 0;
  };
  std::vector<Frame> Stack{{&Nodes[RPO[0]->getNumber()], 0}};
  Stack.back().N->DFSIn = Clock++;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.N->Children.size()) {
      NodeInfo *Child = &Nodes[Top.N->Children[Top.Next++]->getNumber()];
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

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  const NodeInfo *N = node(BB);
  return N ? N->Children : Empty;
}

const std::vector<BasicBlock *> &
DominatorTree::predecessors(const BasicBlock *BB) const {
  const NodeInfo *N = node(BB);
  return N ? N->Preds : Empty;
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
    const auto &Kids = getChildren(BB);
    for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
      Stack.push_back(*It);
  }
  return Out;
}
