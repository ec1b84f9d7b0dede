//===- Cloning.h - Function, block and module cloning -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cloning utilities. The llvm-md driver clones the whole module before
/// optimizing so the validator can compare against the untouched original;
/// loop unswitching clones loop bodies within one function.
///
/// A clone only reads its source: every copy is built from operands that
/// are already mapped, so no source value's use list ever sees the copy.
/// Threads may therefore clone one shared module concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_CLONING_H
#define LLVMMD_IR_CLONING_H

#include "support/FlatMap.h"

#include <memory>
#include <string>
#include <vector>

namespace llvmmd {

class Arena;
class BasicBlock;
class Function;
class Instruction;
class Module;
class Value;

/// Old-to-new value mapping of a clone, keyed by flatKey(old value).
using ValueMap = FlatMap<Value *>;

/// Deep-copies \p M into a fresh module in the same Context. Globals keep
/// their names; function bodies are cloned instruction by instruction, and
/// the clone's functions come in \p M's order.
std::unique_ptr<Module> cloneModule(const Module &M);

/// Clones \p Src's body into \p Dst (which must have the same signature and
/// an empty body). Operands outside the body, such as globals and callees,
/// are copied verbatim.
void cloneFunctionBody(const Function &Src, Function &Dst);

/// Replaces \p Dst's body with a clone of \p Src's (same signature; \p Src
/// may live in another module of the same Context). Globals and callees
/// are mapped to \p Dst's module by name, each distinct one looked up
/// once: the engine's revert phase and triage's function extraction.
void replaceFunctionBody(const Function &Src, Function &Dst);

/// Clones \p Blocks (all in \p F) appending " \p Suffix"-named copies to
/// \p F, and returns them in the order of \p Blocks. Operands, phi incoming
/// blocks and branch targets referring to cloned values/blocks are
/// remapped; external references are left as is (the caller fixes up phi
/// entries from predecessors outside the set). \p VMap receives the
/// old-to-new mapping of the cloned instructions.
std::vector<BasicBlock *> cloneBlocks(Function &F,
                                      const std::vector<BasicBlock *> &Blocks,
                                      ValueMap &VMap,
                                      const std::string &Suffix);

/// Clones one instruction into \p A (normally the destination function's
/// body arena) with identical operands (not remapped) and no parent. Phi
/// incoming blocks and branch successors are copied verbatim.
Instruction *cloneInstruction(const Instruction *I, Arena &A);

} // namespace llvmmd

#endif // LLVMMD_IR_CLONING_H
