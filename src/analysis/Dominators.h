//===- Dominators.h - Dominator tree ----------------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy iterative algorithm
/// over reverse post-order, with DFS interval numbering for O(1) dominance
/// queries. Per-block facts live in vectors indexed by
/// BasicBlock::getNumber(); a query for a block of another function or an
/// unreachable block finds no RPO slot pointing back at it and answers as
/// for an unreachable block. The predecessor and child lists of all blocks
/// share two flat arrays (compressed sparse rows), so a tree costs a fixed
/// handful of allocations whatever the function's size.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_DOMINATORS_H
#define LLVMMD_ANALYSIS_DOMINATORS_H

#include "ir/BasicBlock.h"
#include "support/ArrayRef.h"

#include <vector>

namespace llvmmd {

class Function;

class DominatorTree {
public:
  /// A list of blocks the tree owns, valid as long as the tree.
  using BlockRange = ArrayRef<BasicBlock *>;

  explicit DominatorTree(const Function &F);

  bool isReachable(const BasicBlock *BB) const { return getRPONumber(BB) >= 0; }

  /// Position of \p BB in getRPO(), or -1 if it is unreachable or not a
  /// block of this function.
  int getRPONumber(const BasicBlock *BB) const {
    if (!BB || BB->getNumber() >= Index.size())
      return -1;
    int I = Index[BB->getNumber()];
    return I >= 0 && RPO[I] == BB ? I : -1;
  }

  /// Immediate dominator; null for the entry block and unreachable blocks.
  BasicBlock *getIDom(const BasicBlock *BB) const;

  /// Reflexive dominance: every block dominates itself.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;
  bool properlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Children of \p BB in the dominator tree, in RPO order: the blocks
  /// whose idom is \p BB. Empty for an unreachable or foreign block.
  BlockRange getChildren(const BasicBlock *BB) const;

  /// The reachable predecessors of \p BB in function block order, each
  /// once (a branch with both edges to \p BB counts once): what
  /// BasicBlock::predecessors() filtered by isReachable returns, without
  /// its whole-function scan. Empty for an unreachable block.
  BlockRange predecessors(const BasicBlock *BB) const;

  /// Reachable blocks in reverse post-order (entry first).
  const std::vector<BasicBlock *> &getRPO() const { return RPO; }

  /// Blocks in a preorder walk of the dominator tree (entry first); visiting
  /// in this order guarantees idom-before-block.
  std::vector<BasicBlock *> preorder() const;

private:
  /// A reachable block's facts. Its predecessors are
  /// PredList[PredBegin, PredEnd) and its children
  /// ChildList[ChildBegin, ChildEnd).
  struct NodeInfo {
    BasicBlock *IDom = nullptr;
    unsigned DFSIn = 0;
    unsigned DFSOut = 0;
    unsigned PredBegin = 0, PredEnd = 0;
    unsigned ChildBegin = 0, ChildEnd = 0;
  };

  /// The node of a reachable block of this function, else null.
  const NodeInfo *node(const BasicBlock *BB) const {
    return getRPONumber(BB) < 0 ? nullptr : &Nodes[BB->getNumber()];
  }

  std::vector<BasicBlock *> RPO;
  std::vector<int> Index;      ///< block number -> RPO index, or -1
  std::vector<NodeInfo> Nodes; ///< by block number; reachable blocks only
  std::vector<BasicBlock *> PredList, ChildList;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_DOMINATORS_H
