//===- Instruction.h - All miniir instruction classes -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full instruction vocabulary of the miniir substrate: integer and
/// float arithmetic, comparisons, casts, select, memory (alloca, load,
/// store, getelementptr), calls, phi nodes, and terminators.
///
/// Storage: an instruction is one object in its function's body arena.
/// It carries its own prev/next links in the parent block's instruction
/// list (see BasicBlock.h), its operands and users inline (see Value.h),
/// and, for a φ, its incoming blocks in a SmallVector parallel to the
/// operands. Building, linking or unlinking an instruction normally
/// touches no heap; only a φ or call with more than three operands, or a
/// value with more than two users, spills a list to the heap.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_INSTRUCTION_H
#define LLVMMD_IR_INSTRUCTION_H

#include "ir/Constant.h"
#include "ir/Value.h"
#include "support/SmallVector.h"

namespace llvmmd {

class BasicBlock;
class Function;

enum class Opcode : uint8_t {
  // Integer binary operators.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  Shl,
  LShr,
  AShr,
  And,
  Or,
  Xor,
  // Float binary operators.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Comparisons.
  ICmp,
  FCmp,
  // Casts.
  Trunc,
  ZExt,
  SExt,
  // Other value-producing instructions.
  Select,
  Alloca,
  Load,
  GEP,
  Call,
  Phi,
  // Non-value instructions and terminators.
  Store,
  Br,
  Ret,
  Unreachable,
};

const char *getOpcodeName(Opcode Op);

inline bool isIntBinaryOp(Opcode Op) {
  return Op >= Opcode::Add && Op <= Opcode::Xor;
}
inline bool isFloatBinaryOp(Opcode Op) {
  return Op >= Opcode::FAdd && Op <= Opcode::FDiv;
}
inline bool isBinaryOp(Opcode Op) {
  return Op >= Opcode::Add && Op <= Opcode::FDiv;
}
inline bool isCastOp(Opcode Op) {
  return Op >= Opcode::Trunc && Op <= Opcode::SExt;
}
inline bool isTerminatorOp(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Ret || Op == Opcode::Unreachable;
}
/// Commutative integer/float operators (for canonicalization).
inline bool isCommutativeOp(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::FAdd:
  case Opcode::FMul:
    return true;
  default:
    return false;
  }
}

enum class ICmpPred : uint8_t { EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE };
enum class FCmpPred : uint8_t { OEQ, ONE, OLT, OLE, OGT, OGE };

const char *getPredName(ICmpPred P);
const char *getPredName(FCmpPred P);
/// The predicate that holds for (b,a) whenever P holds for (a,b).
ICmpPred swapPred(ICmpPred P);
/// The predicate equivalent to !P.
ICmpPred invertPred(ICmpPred P);

/// Base class of all instructions. Owns nothing; the function's body arena
/// owns the instruction object, and the parent BasicBlock links it into
/// its list through the Prev/Next fields.
class Instruction : public User {
public:
  Opcode getOpcode() const { return Op; }
  const char *getOpcodeName() const { return llvmmd::getOpcodeName(Op); }

  BasicBlock *getParent() const { return Parent; }
  Function *getFunction() const;

  bool isTerminator() const { return isTerminatorOp(Op); }
  bool isBinaryOp() const { return llvmmd::isBinaryOp(Op); }
  bool isCast() const { return isCastOp(Op); }
  bool isPhi() const { return Op == Opcode::Phi; }

  /// True if this instruction may write memory or have other side effects
  /// observable after the function returns.
  bool mayWriteMemory() const;
  /// True if this instruction may read memory.
  bool mayReadMemory() const;
  /// True if the instruction has side effects that forbid removing it even
  /// when its result is unused (stores, most calls).
  bool hasSideEffects() const;

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Instruction;
  }

protected:
  Instruction(Opcode Op, Type *Ty)
      : User(ValueKind::Instruction, Ty), Op(Op) {}

private:
  friend class BasicBlock; // links Parent, Prev and Next
  Opcode Op;
  BasicBlock *Parent = nullptr;
  /// Neighbours in Parent's instruction list; null at the ends and while
  /// the instruction is unlinked.
  Instruction *Prev = nullptr;
  Instruction *Next = nullptr;
};

/// Integer or float binary operator.
class BinaryOperator : public Instruction {
public:
  BinaryOperator(Opcode Op, Value *LHS, Value *RHS)
      : Instruction(Op, LHS->getType()) {
    assert(llvmmd::isBinaryOp(Op) && "not a binary opcode");
    assert(LHS->getType() == RHS->getType() && "operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && llvmmd::isBinaryOp(I->getOpcode());
  }
};

/// Integer comparison producing i1.
class ICmpInst : public Instruction {
public:
  ICmpInst(ICmpPred Pred, Value *LHS, Value *RHS, Type *BoolTy)
      : Instruction(Opcode::ICmp, BoolTy), Pred(Pred) {
    assert(LHS->getType() == RHS->getType() && "operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  ICmpPred getPred() const { return Pred; }
  void setPred(ICmpPred P) { Pred = P; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::ICmp;
  }

private:
  ICmpPred Pred;
};

/// Ordered float comparison producing i1.
class FCmpInst : public Instruction {
public:
  FCmpInst(FCmpPred Pred, Value *LHS, Value *RHS, Type *BoolTy)
      : Instruction(Opcode::FCmp, BoolTy), Pred(Pred) {
    addOperand(LHS);
    addOperand(RHS);
  }

  FCmpPred getPred() const { return Pred; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::FCmp;
  }

private:
  FCmpPred Pred;
};

/// Integer width cast (trunc / zext / sext).
class CastInst : public Instruction {
public:
  CastInst(Opcode Op, Value *Src, Type *DestTy) : Instruction(Op, DestTy) {
    assert(isCastOp(Op) && "not a cast opcode");
    addOperand(Src);
  }

  Value *getSrc() const { return getOperand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && isCastOp(I->getOpcode());
  }
};

/// select i1 %c, T %a, T %b
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TrueV, Value *FalseV)
      : Instruction(Opcode::Select, TrueV->getType()) {
    assert(TrueV->getType() == FalseV->getType() && "select arm mismatch");
    addOperand(Cond);
    addOperand(TrueV);
    addOperand(FalseV);
  }

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Select;
  }
};

/// Stack allocation of `Count` elements of `AllocatedTy`; yields ptr.
class AllocaInst : public Instruction {
public:
  AllocaInst(Type *AllocatedTy, Value *Count, Type *PtrTy)
      : Instruction(Opcode::Alloca, PtrTy), AllocatedTy(AllocatedTy) {
    addOperand(Count);
  }

  Type *getAllocatedType() const { return AllocatedTy; }
  Value *getCount() const { return getOperand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Alloca;
  }

private:
  Type *AllocatedTy;
};

/// load T, ptr %p
class LoadInst : public Instruction {
public:
  LoadInst(Type *Ty, Value *Ptr) : Instruction(Opcode::Load, Ty) {
    assert(Ptr->getType()->isPointer() && "load from non-pointer");
    addOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Load;
  }
};

/// store T %v, ptr %p
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr, Type *VoidTy)
      : Instruction(Opcode::Store, VoidTy) {
    assert(Ptr->getType()->isPointer() && "store to non-pointer");
    addOperand(Val);
    addOperand(Ptr);
  }

  Value *getStoredValue() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Store;
  }
};

/// getelementptr T, ptr %base, i64 %idx — pointer arithmetic by whole
/// elements: result = base + idx * sizeof(T).
class GEPInst : public Instruction {
public:
  GEPInst(Type *ElemTy, Value *Base, Value *Index, Type *PtrTy)
      : Instruction(Opcode::GEP, PtrTy), ElemTy(ElemTy) {
    addOperand(Base);
    addOperand(Index);
  }

  Type *getElementType() const { return ElemTy; }
  Value *getBase() const { return getOperand(0); }
  Value *getIndex() const { return getOperand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::GEP;
  }

private:
  Type *ElemTy;
};

/// Direct call to a module function or external declaration.
class CallInst : public Instruction {
public:
  /// Calls \p Callee with the \p NumArgs values at \p Args.
  CallInst(Function *Callee, Value *const *Args, unsigned NumArgs,
           Type *RetTy);

  Function *getCallee() const { return Callee; }
  /// Retargets the call (used by module cloning to point at the cloned
  /// module's declaration of the same function).
  void setCallee(Function *F) {
    assert(F && "call requires a callee");
    Callee = F;
  }
  unsigned getNumArgs() const { return getNumOperands(); }
  Value *getArg(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Call;
  }

private:
  Function *Callee;
};

/// SSA phi node; incoming blocks are kept parallel to the operand list.
class PhiNode : public Instruction {
public:
  explicit PhiNode(Type *Ty) : Instruction(Opcode::Phi, Ty) {}

  void addIncoming(Value *V, BasicBlock *BB) {
    assert(V->getType() == getType() && "phi incoming type mismatch");
    addOperand(V);
    Blocks.push_back(BB);
  }

  unsigned getNumIncoming() const { return getNumOperands(); }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  void setIncomingValue(unsigned I, Value *V) { setOperand(I, V); }
  BasicBlock *getIncomingBlock(unsigned I) const {
    assert(I < Blocks.size() && "phi incoming index out of range");
    return Blocks[I];
  }
  void setIncomingBlock(unsigned I, BasicBlock *BB) {
    assert(I < Blocks.size() && "phi incoming index out of range");
    Blocks[I] = BB;
  }

  /// Index of the entry for predecessor \p BB, or -1 if absent.
  int getBlockIndex(const BasicBlock *BB) const {
    for (unsigned I = 0, E = Blocks.size(); I != E; ++I)
      if (Blocks[I] == BB)
        return static_cast<int>(I);
    return -1;
  }

  Value *getIncomingValueForBlock(const BasicBlock *BB) const {
    int I = getBlockIndex(BB);
    assert(I >= 0 && "no phi entry for block");
    return getIncomingValue(static_cast<unsigned>(I));
  }

  void removeIncoming(unsigned I) {
    removeOperand(I);
    Blocks.erase(Blocks.begin() + I);
  }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Phi;
  }

private:
  SmallVector<BasicBlock *, 3> Blocks;
};

/// Conditional or unconditional branch.
class BranchInst : public Instruction {
public:
  /// Unconditional branch.
  BranchInst(BasicBlock *Target, Type *VoidTy)
      : Instruction(Opcode::Br, VoidTy), Succs{Target, nullptr} {}

  /// Conditional branch on an i1 value.
  BranchInst(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB,
             Type *VoidTy)
      : Instruction(Opcode::Br, VoidTy), Succs{TrueBB, FalseBB} {
    addOperand(Cond);
  }

  bool isConditional() const { return getNumOperands() == 1; }
  Value *getCondition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return getOperand(0);
  }
  /// Turns a conditional branch into an unconditional one to \p Target.
  void makeUnconditional(BasicBlock *Target) {
    if (isConditional())
      removeOperand(0);
    Succs[0] = Target;
    Succs[1] = nullptr;
  }

  unsigned getNumSuccessors() const { return isConditional() ? 2 : 1; }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < getNumSuccessors() && "successor index out of range");
    return Succs[I];
  }
  void setSuccessor(unsigned I, BasicBlock *BB) {
    assert(I < getNumSuccessors() && "successor index out of range");
    Succs[I] = BB;
  }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Br;
  }

private:
  BasicBlock *Succs[2];
};

/// ret T %v / ret void
class ReturnInst : public Instruction {
public:
  ReturnInst(Value *RetVal, Type *VoidTy) : Instruction(Opcode::Ret, VoidTy) {
    if (RetVal)
      addOperand(RetVal);
  }

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    return hasReturnValue() ? getOperand(0) : nullptr;
  }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Ret;
  }
};

class UnreachableInst : public Instruction {
public:
  explicit UnreachableInst(Type *VoidTy)
      : Instruction(Opcode::Unreachable, VoidTy) {}

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Unreachable;
  }
};

} // namespace llvmmd

#endif // LLVMMD_IR_INSTRUCTION_H
