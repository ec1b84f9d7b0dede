//===- BasicBlock.h - A straight-line sequence of instructions --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock holds an ordered list of instructions terminated by exactly
/// one terminator. Blocks are owned by their parent Function, which numbers
/// them in creation order; CFG analyses index dense vectors by that number.
///
/// The instruction list is intrusive, like LLVM's ilist: each Instruction
/// carries its own Prev/Next links, and the block keeps the two ends and a
/// count. So linking and unlinking allocate nothing and cost O(1) wherever
/// the instruction sits (erasing k of n instructions is O(k), not O(n·k)),
/// size() is a load, and getTerminator() reads the tail. Iterators are
/// bidirectional and stay valid across insertions and across removal of
/// any other instruction; a loop that erases the instruction it stands on
/// advances first. phis() and successors() are ranges over the block and
/// its terminator, not copies.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_BASICBLOCK_H
#define LLVMMD_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

namespace llvmmd {

class Function;

class BasicBlock {
public:
  /// Walks the instruction list. Holds the block so that end() can step
  /// back to the tail. Dereferences to the instruction pointer itself.
  class iterator {
  public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Instruction *;
    using difference_type = std::ptrdiff_t;
    using pointer = Instruction *const *;
    using reference = Instruction *;

    iterator() = default;

    Instruction *operator*() const {
      assert(Cur && "dereferencing end()");
      return Cur;
    }
    iterator &operator++() {
      Cur = Cur->Next;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++*this;
      return Old;
    }
    iterator &operator--() {
      Cur = Cur ? Cur->Prev : BB->Tail;
      return *this;
    }
    iterator operator--(int) {
      iterator Old = *this;
      --*this;
      return Old;
    }
    bool operator==(const iterator &O) const { return Cur == O.Cur; }
    bool operator!=(const iterator &O) const { return Cur != O.Cur; }

  private:
    friend class BasicBlock;
    iterator(Instruction *Cur, const BasicBlock *BB) : Cur(Cur), BB(BB) {}

    Instruction *Cur = nullptr;
    const BasicBlock *BB = nullptr;
  };
  using const_iterator = iterator;

  /// The φ nodes at the head of the block, in order. Erasing the φ a loop
  /// stands on ends the walk early; such loops advance by hand.
  class PhiRange {
  public:
    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PhiNode *;
      using difference_type = std::ptrdiff_t;
      using pointer = PhiNode *const *;
      using reference = PhiNode *;

      explicit iterator(Instruction *I) : Cur(asPhi(I)) {}
      PhiNode *operator*() const { return Cur; }
      iterator &operator++() {
        Cur = asPhi(Cur->Next);
        return *this;
      }
      bool operator==(const iterator &O) const { return Cur == O.Cur; }
      bool operator!=(const iterator &O) const { return Cur != O.Cur; }

    private:
      static PhiNode *asPhi(Instruction *I) {
        return dyn_cast_or_null<PhiNode>(I);
      }
      PhiNode *Cur;
    };

    explicit PhiRange(Instruction *Head) : Head(Head) {}
    iterator begin() const { return iterator(Head); }
    iterator end() const { return iterator(nullptr); }
    bool empty() const { return begin() == end(); }
    size_t size() const { return std::distance(begin(), end()); }

  private:
    Instruction *Head;
  };

  /// The successor slots of a block's terminator, in order.
  class SuccessorRange {
  public:
    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = BasicBlock *;
      using difference_type = std::ptrdiff_t;
      using pointer = BasicBlock *const *;
      using reference = BasicBlock *;

      iterator(const BranchInst *Br, unsigned Idx) : Br(Br), Idx(Idx) {}
      BasicBlock *operator*() const { return Br->getSuccessor(Idx); }
      iterator &operator++() {
        ++Idx;
        return *this;
      }
      bool operator==(const iterator &O) const { return Idx == O.Idx; }
      bool operator!=(const iterator &O) const { return Idx != O.Idx; }

    private:
      const BranchInst *Br;
      unsigned Idx;
    };

    explicit SuccessorRange(const BranchInst *Br)
        : Br(Br), Num(Br ? Br->getNumSuccessors() : 0) {}
    iterator begin() const { return iterator(Br, 0); }
    iterator end() const { return iterator(Br, Num); }

  private:
    const BranchInst *Br;
    unsigned Num;
  };

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

  iterator begin() const { return iterator(Head, this); }
  iterator end() const { return iterator(nullptr, this); }
  bool empty() const { return NumInsts == 0; }
  size_t size() const { return NumInsts; }

  Instruction *front() const { return Head; }
  Instruction *back() const { return Tail; }

  /// The position of \p I, which must be in this block.
  iterator iteratorTo(Instruction *I) const {
    assert(I->getParent() == this && "instruction is not in this block");
    return iterator(I, this);
  }

  /// Appends \p I, taking ownership.
  void append(Instruction *I) { insert(end(), I); }

  /// Inserts \p I before \p Pos, taking ownership. Returns an iterator to
  /// the inserted instruction.
  iterator insert(iterator Pos, Instruction *I) {
    assert(!I->getParent() && !I->Prev && !I->Next &&
           "instruction is already in a block");
    Instruction *Next = Pos == end() ? nullptr : *Pos;
    Instruction *Prev = Next ? Next->Prev : Tail;
    I->Prev = Prev;
    I->Next = Next;
    (Prev ? Prev->Next : Head) = I;
    (Next ? Next->Prev : Tail) = I;
    I->Parent = this;
    ++NumInsts;
    return iterator(I, this);
  }

  /// Unlinks \p I without deleting it (ownership passes to the caller).
  void remove(Instruction *I) {
    assert(I->getParent() == this && "instruction is not in this block");
    (I->Prev ? I->Prev->Next : Head) = I->Next;
    (I->Next ? I->Next->Prev : Tail) = I->Prev;
    I->Prev = I->Next = nullptr;
    I->Parent = nullptr;
    --NumInsts;
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
    return Tail && Tail->isTerminator() ? Tail : nullptr;
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
  SuccessorRange successors() const {
    return SuccessorRange(dyn_cast_or_null<BranchInst>(getTerminator()));
  }

  /// Predecessor blocks in function block order, each once, unreachable
  /// ones included. Every call scans the whole function, so hot callers
  /// read DominatorTree::predecessors (the reachable ones) instead.
  std::vector<BasicBlock *> predecessors() const;

  /// First non-phi instruction position (phis must be grouped at the top).
  iterator getFirstNonPhi() const {
    Instruction *I = Head;
    while (I && I->isPhi())
      I = I->Next;
    return iterator(I, this);
  }

  /// All phi nodes at the head of the block.
  PhiRange phis() const { return PhiRange(Head); }

private:
  friend class Function; // assigns Number
  std::string Name;
  Function *Parent = nullptr;
  unsigned Number = 0;
  Instruction *Head = nullptr;
  Instruction *Tail = nullptr;
  size_t NumInsts = 0;
};

} // namespace llvmmd

#endif // LLVMMD_IR_BASICBLOCK_H
