//===- CFG.cpp - Control-flow graph utilities -------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "ir/Function.h"

#include <algorithm>

using namespace llvmmd;

namespace {

/// Visited flags over the blocks of one function, indexed by block number:
/// a slot holds its block until the walk visits it. Blocks outside the
/// function's block list (a malformed branch the verifier reports) have no
/// slot pointing back at them, so they are never visited.
class VisitedBlocks {
public:
  explicit VisitedBlocks(const Function &F) : Slots(F.getMaxBlockNumber()) {
    for (BasicBlock *BB : F.blocks())
      Slots[BB->getNumber()] = BB;
  }

  /// Marks \p BB visited; true if it was not visited before.
  bool insert(BasicBlock *BB) {
    unsigned N = BB ? BB->getNumber() : 0;
    if (!BB || N >= Slots.size() || Slots[N] != BB)
      return false;
    Slots[N] = nullptr;
    return true;
  }

private:
  std::vector<BasicBlock *> Slots;
};

} // namespace

std::vector<BasicBlock *> llvmmd::computeRPO(const Function &F) {
  std::vector<BasicBlock *> RPO;
  computeRPO(F, RPO);
  return RPO;
}

void llvmmd::computeRPO(const Function &F, std::vector<BasicBlock *> &Out) {
  Out.clear();
  if (F.isDeclaration())
    return;
  Out.reserve(F.getNumBlocks());
  VisitedBlocks Visited(F);

  // Iterative DFS computing post-order into Out, reversed at the end.
  struct Frame {
    BasicBlock *BB;
    unsigned Next = 0;
  };
  std::vector<Frame> Stack;
  Stack.reserve(F.getNumBlocks());
  BasicBlock *Entry = F.getEntryBlock();
  Visited.insert(Entry);
  Stack.push_back({Entry, 0});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.BB->getNumSuccessors()) {
      BasicBlock *Succ = Top.BB->getSuccessor(Top.Next++);
      if (Visited.insert(Succ))
        Stack.push_back({Succ, 0});
      continue;
    }
    Out.push_back(Top.BB);
    Stack.pop_back();
  }
  std::reverse(Out.begin(), Out.end());
}

std::vector<BasicBlock *> llvmmd::reachableBlocks(const Function &F) {
  std::vector<BasicBlock *> Out;
  if (F.isDeclaration())
    return Out;
  VisitedBlocks Visited(F);
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  Visited.insert(F.getEntryBlock());
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    Out.push_back(BB);
    for (unsigned I = 0, E = BB->getNumSuccessors(); I != E; ++I)
      if (Visited.insert(BB->getSuccessor(I)))
        Work.push_back(BB->getSuccessor(I));
  }
  return Out;
}
