//===- FunctionAnalyses.cpp - Per-function CFG analysis cache ---------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/FunctionAnalyses.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Function.h"

#include <cassert>

using namespace llvmmd;

void FunctionAnalyses::rekey(const Function &F) {
  Scratch.clear();
  // Four words per block: pointer, number and both successor slots (null
  // when absent), so no two CFGs share a key.
  for (const BasicBlock *BB : F.blocks()) {
    unsigned NumSuccs = BB->getNumSuccessors();
    assert(NumSuccs <= 2 && "a terminator has at most two successors");
    Scratch.push_back(reinterpret_cast<uintptr_t>(BB));
    Scratch.push_back(BB->getNumber());
    for (unsigned I = 0; I != 2; ++I)
      Scratch.push_back(
          I < NumSuccs ? reinterpret_cast<uintptr_t>(BB->getSuccessor(I)) : 0);
  }
  if (Scratch == Key)
    return;
  Key.swap(Scratch);
  DT.reset();
  LI.reset();
}

std::shared_ptr<const DominatorTree>
FunctionAnalyses::domTree(const Function &F) {
  rekey(F);
  if (!DT) {
    DT = std::make_shared<const DominatorTree>(F);
    ++DomTreeBuilds;
  }
  return DT;
}

std::shared_ptr<LoopInfo> FunctionAnalyses::loopInfo(const Function &F) {
  std::shared_ptr<const DominatorTree> Dom = domTree(F);
  if (!LI) {
    LI = std::make_shared<LoopInfo>(F, *Dom);
    ++LoopInfoBuilds;
  }
  return LI;
}
