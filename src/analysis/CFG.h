//===- CFG.h - Control-flow graph utilities ---------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reverse post-order computation and reachability over the CFG of a
/// function. All analyses in this repo work on reachable blocks only.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_CFG_H
#define LLVMMD_ANALYSIS_CFG_H

#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;

/// Blocks reachable from entry in reverse post-order (entry first).
std::vector<BasicBlock *> computeRPO(const Function &F);
/// The same into \p Out, which is cleared and sized once for the
/// function's blocks.
void computeRPO(const Function &F, std::vector<BasicBlock *> &Out);

/// Blocks reachable from entry, in DFS discovery order.
std::vector<BasicBlock *> reachableBlocks(const Function &F);

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_CFG_H
