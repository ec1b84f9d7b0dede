//===- LoopInfo.h - Natural loop detection ----------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural loop discovery from back edges (edges whose target dominates
/// their source). Loops carry their header, blocks, latches, preheader (if
/// unique), exiting edges, and nesting. Functions whose CFG contains a
/// retreating edge that is not a back edge are flagged irreducible; the
/// Gated SSA front-end rejects those, matching the paper (§5.1).
///
/// Membership lives in vectors indexed by BasicBlock::getNumber(). A query
/// for a block of another function checks the block's parent first, so it
/// answers "not in any loop" as for any block outside the loops.
///
/// Every order this analysis exposes — loop discovery, block membership,
/// exiting/exit lists, nesting ties — is derived from the CFG's RPO, never
/// from pointer values. Passes iterate these lists to decide where hoisted
/// or cloned code lands, so pointer-ordered iteration here used to make
/// optimization results depend on heap-allocation history (the engine's
/// resubmission divergence) and, with concurrent interning, on scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_LOOPINFO_H
#define LLVMMD_ANALYSIS_LOOPINFO_H

#include "ir/BasicBlock.h"

#include <memory>
#include <vector>

namespace llvmmd {

class DominatorTree;
class Function;

class Loop {
public:
  BasicBlock *getHeader() const { return Header; }
  Loop *getParent() const { return Parent; }
  const std::vector<Loop *> &getSubLoops() const { return SubLoops; }
  /// Member blocks in RPO order (header first). Deterministic: passes
  /// iterate this to hoist/clone/delete, so it must not depend on pointer
  /// values.
  const std::vector<BasicBlock *> &getBlocks() const { return Blocks; }
  bool contains(const BasicBlock *BB) const {
    if (!BB || BB->getParent() != Header->getParent())
      return false;
    unsigned N = BB->getNumber();
    return N < BlockSet.size() && BlockSet[N];
  }
  unsigned getDepth() const {
    unsigned D = 1;
    for (const Loop *L = Parent; L; L = L->getParent())
      ++D;
    return D;
  }

  /// Blocks inside the loop with a back edge to the header.
  const std::vector<BasicBlock *> &getLatches() const { return Latches; }

  /// The unique out-of-loop predecessor of the header whose only successor
  /// is the header, or null if there is none.
  BasicBlock *getPreheader() const { return Preheader; }

  /// Loop-entering predecessors of the header (outside the loop).
  const std::vector<BasicBlock *> &getEntering() const { return Entering; }

  /// In-loop blocks with a successor outside the loop.
  const std::vector<BasicBlock *> &getExitingBlocks() const {
    return Exiting;
  }
  /// Out-of-loop successors of exiting blocks (deduplicated).
  const std::vector<BasicBlock *> &getExitBlocks() const { return Exits; }

  /// Records \p Pre, a block just inserted to receive every loop-entering
  /// edge, as the loop's preheader and only entering block. It becomes a
  /// member of every enclosing loop (not of this one), appended at the end
  /// of their block lists: insertion order is program order, so the lists
  /// stay deterministic.
  void addPreheader(BasicBlock *Pre) {
    Preheader = Pre;
    Entering.assign(1, Pre);
    unsigned N = Pre->getNumber();
    for (Loop *L = Parent; L; L = L->Parent) {
      if (N >= L->BlockSet.size())
        L->BlockSet.resize(N + 1);
      if (!L->BlockSet[N]) {
        L->BlockSet[N] = true;
        L->Blocks.push_back(Pre);
      }
    }
  }

private:
  friend class LoopInfo;
  BasicBlock *Header = nullptr;
  Loop *Parent = nullptr;
  std::vector<Loop *> SubLoops;
  std::vector<BasicBlock *> Blocks; ///< RPO order; see getBlocks()
  std::vector<bool> BlockSet; ///< membership mirror of Blocks, by number
  std::vector<BasicBlock *> Latches;
  BasicBlock *Preheader = nullptr;
  std::vector<BasicBlock *> Entering;
  std::vector<BasicBlock *> Exiting;
  std::vector<BasicBlock *> Exits;
};

class LoopInfo {
public:
  LoopInfo(const Function &F, const DominatorTree &DT);

  /// Innermost loop containing \p BB, or null.
  Loop *getLoopFor(const BasicBlock *BB) const {
    if (!BB || BB->getParent() != &F || BB->getNumber() >= BlockMap.size())
      return nullptr;
    return BlockMap[BB->getNumber()];
  }

  bool isLoopHeader(const BasicBlock *BB) const {
    Loop *L = getLoopFor(BB);
    return L && L->getHeader() == BB;
  }

  /// Top-level loops (not contained in any other loop).
  const std::vector<Loop *> &getTopLevelLoops() const { return TopLevel; }

  /// All loops, innermost first.
  std::vector<Loop *> getLoopsInnermostFirst() const;

  /// True if a retreating edge that is not a back edge was found.
  bool isIrreducible() const { return Irreducible; }

private:
  const Function &F;
  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Loop *> TopLevel;
  std::vector<Loop *> BlockMap; ///< block number -> innermost loop, or null
  bool Irreducible = false;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_LOOPINFO_H
