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

/// Visited flags over the blocks of one function: a sorted copy of its
/// block list plus one flag per block, so a walk allocates twice instead
/// of once per visited block. Blocks outside the function (a malformed
/// branch the verifier reports) are never visited.
class VisitedBlocks {
public:
  explicit VisitedBlocks(const Function &F)
      : Blocks(F.blocks().begin(), F.blocks().end()), Seen(Blocks.size()) {
    std::sort(Blocks.begin(), Blocks.end());
  }

  /// Marks \p BB visited; true if it was not visited before.
  bool insert(BasicBlock *BB) {
    auto It = std::lower_bound(Blocks.begin(), Blocks.end(), BB);
    if (It == Blocks.end() || *It != BB)
      return false;
    char &S = Seen[It - Blocks.begin()];
    if (S)
      return false;
    S = 1;
    return true;
  }

private:
  std::vector<BasicBlock *> Blocks;
  std::vector<char> Seen;
};

/// Successor \p I of \p BB's terminator, or null past the last one.
BasicBlock *successor(const BasicBlock *BB, unsigned I) {
  auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
  return Br && I < Br->getNumSuccessors() ? Br->getSuccessor(I) : nullptr;
}

} // namespace

std::vector<BasicBlock *> llvmmd::computeRPO(const Function &F) {
  std::vector<BasicBlock *> PostOrder;
  if (F.isDeclaration())
    return PostOrder;
  VisitedBlocks Visited(F);

  // Iterative DFS computing post-order.
  struct Frame {
    BasicBlock *BB;
    unsigned Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F.getEntryBlock();
  Visited.insert(Entry);
  Stack.push_back({Entry, 0});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (BasicBlock *Succ = successor(Top.BB, Top.Next)) {
      ++Top.Next;
      if (Visited.insert(Succ))
        Stack.push_back({Succ, 0});
      continue;
    }
    PostOrder.push_back(Top.BB);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
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
    for (BasicBlock *Succ : BB->successors())
      if (Visited.insert(Succ))
        Work.push_back(Succ);
  }
  return Out;
}
