//===- BasicBlock.h - A straight-line sequence of instructions --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock owns an ordered list of instructions terminated by exactly
/// one terminator. Blocks are owned by their parent Function, which numbers
/// them in creation order; CFG analyses index dense vectors by that number.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_BASICBLOCK_H
#define LLVMMD_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <list>
#include <string>
#include <vector>

namespace llvmmd {

class Function;

class BasicBlock {
public:
  using InstListType = std::list<Instruction *>;
  using iterator = InstListType::iterator;
  using const_iterator = InstListType::const_iterator;

  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  // Blocks and their instructions are owned by the parent function's body
  // arena; destruction never frees instructions (the arena does).
  ~BasicBlock() = default;

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Function *getParent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  /// Unique within the parent's body: assigned by Function::createBlock
  /// from a counter that only dropBody resets. Blocks are never renumbered
  /// and erased blocks leave holes, so a number below
  /// Function::getMaxBlockNumber() is not necessarily a live block.
  unsigned getNumber() const { return Number; }

  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }
  const_iterator begin() const { return Insts.begin(); }
  const_iterator end() const { return Insts.end(); }
  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  Instruction *front() const { return Insts.front(); }
  Instruction *back() const { return Insts.back(); }

  /// Appends \p I, taking ownership.
  void append(Instruction *I) {
    I->setParent(this);
    Insts.push_back(I);
  }

  /// Inserts \p I before \p Pos, taking ownership. Returns an iterator to
  /// the inserted instruction.
  iterator insert(iterator Pos, Instruction *I) {
    I->setParent(this);
    return Insts.insert(Pos, I);
  }

  /// Unlinks \p I without deleting it (ownership passes to the caller).
  void remove(Instruction *I) {
    Insts.remove(I);
    I->setParent(nullptr);
  }

  /// Unlinks \p I and releases its operand uses. The instruction must have
  /// no remaining uses. Its storage stays in the function's body arena
  /// until the body is dropped — erase never frees.
  void erase(Instruction *I) {
    remove(I);
    I->dropAllReferences();
  }

  /// The block terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back();
  }

  /// Successor slots of the terminator (0 for ret/unreachable or an
  /// unterminated block); a branch with both edges to one block has 2.
  unsigned getNumSuccessors() const {
    auto *Br = dyn_cast_or_null<BranchInst>(getTerminator());
    return Br ? Br->getNumSuccessors() : 0;
  }
  BasicBlock *getSuccessor(unsigned I) const {
    return cast<BranchInst>(getTerminator())->getSuccessor(I);
  }

  /// Successor blocks via the terminator (empty for ret/unreachable).
  std::vector<BasicBlock *> successors() const {
    std::vector<BasicBlock *> Out;
    for (unsigned I = 0, E = getNumSuccessors(); I != E; ++I)
      Out.push_back(getSuccessor(I));
    return Out;
  }

  /// Predecessor blocks in function block order, each once, unreachable
  /// ones included. Every call scans the whole function, so hot callers
  /// read DominatorTree::predecessors (the reachable ones) instead.
  std::vector<BasicBlock *> predecessors() const;

  /// First non-phi instruction position (phis must be grouped at the top).
  iterator getFirstNonPhi() {
    auto It = Insts.begin();
    while (It != Insts.end() && (*It)->isPhi())
      ++It;
    return It;
  }

  /// All phi nodes at the head of the block.
  std::vector<PhiNode *> phis() const {
    std::vector<PhiNode *> Out;
    for (Instruction *I : Insts) {
      auto *P = dyn_cast<PhiNode>(I);
      if (!P)
        break;
      Out.push_back(P);
    }
    return Out;
  }

private:
  friend class Function; // assigns Number
  std::string Name;
  Function *Parent = nullptr;
  unsigned Number = 0;
  InstListType Insts;
};

} // namespace llvmmd

#endif // LLVMMD_IR_BASICBLOCK_H
