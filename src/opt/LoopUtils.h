//===- LoopUtils.h - Shared loop transformation helpers ---------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Preheader insertion and loop-shape queries shared by LICM, loop deletion
/// and loop unswitching.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_OPT_LOOPUTILS_H
#define LLVMMD_OPT_LOOPUTILS_H

namespace llvmmd {

class BasicBlock;
class Function;
class Loop;
class Value;

/// Ensures \p L has a dedicated preheader: a block whose single successor is
/// the header and which receives every loop-entering edge. Creates one
/// (updating header phis) if needed and records it in \p L, so a second call
/// returns it. Returns the preheader, or null if the loop has no entering
/// edges (dead loop).
BasicBlock *ensurePreheader(Function &F, Loop &L);

/// True if \p V is defined outside \p L (constants, arguments, globals, and
/// instructions in non-loop blocks).
bool isDefinedOutsideLoop(const Value *V, const Loop &L);

/// True if no instruction inside \p L is used by an instruction outside it,
/// except as incoming values of phis located in exit blocks (which loop
/// transformations know how to patch).
bool loopValuesEscapeOnlyViaExitPhis(const Loop &L);

} // namespace llvmmd

#endif // LLVMMD_OPT_LOOPUTILS_H
