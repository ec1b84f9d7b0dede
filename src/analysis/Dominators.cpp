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
  if (RPO.empty())
    return;
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    Index[RPO[I]] = I;

  // Reachable predecessors by RPO index, built once from the successor
  // lists: unreachable predecessors never enter the intersection, and a
  // block outside the function (malformed IR) is not in the RPO.
  std::vector<std::vector<int>> Preds(RPO.size());
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    for (BasicBlock *Succ : RPO[I]->successors())
      if (auto It = Index.find(Succ); It != Index.end())
        Preds[It->second].push_back(static_cast<int>(I));

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
      for (int P : Preds[I]) {
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

  for (unsigned I = 0, E = RPO.size(); I != E; ++I) {
    NodeInfo &N = Nodes[RPO[I]];
    if (I == 0) {
      N.IDom = nullptr;
      continue;
    }
    N.IDom = RPO[IDom[I]];
    Nodes[N.IDom].Children.push_back(RPO[I]);
  }

  // DFS numbering for O(1) dominance queries.
  unsigned Clock = 0;
  struct Frame {
    const BasicBlock *BB;
    size_t Next = 0;
  };
  std::vector<Frame> Stack{{RPO[0], 0}};
  Nodes[RPO[0]].DFSIn = Clock++;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    NodeInfo &N = Nodes[Top.BB];
    if (Top.Next < N.Children.size()) {
      const BasicBlock *Child = N.Children[Top.Next++];
      Nodes[Child].DFSIn = Clock++;
      Stack.push_back({Child, 0});
      continue;
    }
    N.DFSOut = Clock++;
    Stack.pop_back();
  }
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  auto It = Nodes.find(BB);
  return It == Nodes.end() ? nullptr : It->second.IDom;
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  auto ItA = Nodes.find(A);
  auto ItB = Nodes.find(B);
  if (ItA == Nodes.end() || ItB == Nodes.end())
    return false;
  return ItA->second.DFSIn <= ItB->second.DFSIn &&
         ItB->second.DFSOut <= ItA->second.DFSOut;
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  auto It = Nodes.find(BB);
  return It == Nodes.end() ? Empty : It->second.Children;
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
