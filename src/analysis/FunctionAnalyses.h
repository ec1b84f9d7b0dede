//===- FunctionAnalyses.h - Per-function CFG analysis cache -----*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dominator tree and loop info of one function, built on first request
/// and handed out again while the function's CFG stays the same. One cache
/// serves one function's pipeline (PassManager::run(Function&), the
/// engine's stepwise loop) and dies with it; none is shared across
/// functions or threads.
///
/// Validity is decided by an exact CFG key, compared rather than hashed:
/// for each block in list order, its pointer, its number and its
/// terminator's successors. Both analyses read nothing else, so a cached
/// analysis whose key matches equals a fresh one. The key cannot go stale
/// and needs no hook in the IR mutators that edit the CFG (block creation
/// and erasure, reordering, successor edits, terminator changes). A
/// mismatch drops both analyses.
///
/// Handles are shared: a pass may hold one across a request that re-keys
/// the cache (loop unswitching asks for a dominator tree while it holds a
/// loop info, and LICM edits its loop info through ensurePreheader).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_FUNCTIONANALYSES_H
#define LLVMMD_ANALYSIS_FUNCTIONANALYSES_H

#include <cstdint>
#include <memory>
#include <vector>

namespace llvmmd {

class DominatorTree;
class Function;
class LoopInfo;

class FunctionAnalyses {
public:
  std::shared_ptr<const DominatorTree> domTree(const Function &F);
  std::shared_ptr<LoopInfo> loopInfo(const Function &F);

  /// Analyses this cache has built so far.
  unsigned getDomTreeBuilds() const { return DomTreeBuilds; }
  unsigned getLoopInfoBuilds() const { return LoopInfoBuilds; }

private:
  /// Drops both analyses unless \p F's CFG key equals the cached one.
  void rekey(const Function &F);

  std::vector<uintptr_t> Key, Scratch;
  std::shared_ptr<const DominatorTree> DT;
  std::shared_ptr<LoopInfo> LI;
  unsigned DomTreeBuilds = 0;
  unsigned LoopInfoBuilds = 0;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_FUNCTIONANALYSES_H
