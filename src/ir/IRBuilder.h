//===- IRBuilder.h - Convenience instruction factory ------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder appends instructions to a basic block, naming them and keeping
/// construction code short. Used by tests, examples and the workload
/// generator.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_IRBUILDER_H
#define LLVMMD_IR_IRBUILDER_H

#include "ir/BasicBlock.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"

#include <string>
#include <vector>

namespace llvmmd {

class IRBuilder {
public:
  explicit IRBuilder(Context &Ctx) : Ctx(Ctx) {}

  void setInsertPoint(BasicBlock *Block) { BB = Block; }
  BasicBlock *getInsertBlock() const { return BB; }
  Context &getContext() const { return Ctx; }

  //===------------------------------------------------------------------===//
  // Arithmetic
  //===------------------------------------------------------------------===//

  Value *createBinary(Opcode Op, Value *L, Value *R,
                      const std::string &Name = "") {
    return insert(arena().create<BinaryOperator>(Op, L, R), Name);
  }

  Value *createAdd(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Add, L, R, Name);
  }
  Value *createSub(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Sub, L, R, Name);
  }
  Value *createMul(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Mul, L, R, Name);
  }
  Value *createShl(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Shl, L, R, Name);
  }
  Value *createAnd(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::And, L, R, Name);
  }
  Value *createOr(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Or, L, R, Name);
  }
  Value *createXor(Value *L, Value *R, const std::string &Name = "") {
    return createBinary(Opcode::Xor, L, R, Name);
  }

  Value *createICmp(ICmpPred P, Value *L, Value *R,
                    const std::string &Name = "") {
    return insert(arena().create<ICmpInst>(P, L, R, Ctx.getInt1Ty()), Name);
  }
  Value *createFCmp(FCmpPred P, Value *L, Value *R,
                    const std::string &Name = "") {
    return insert(arena().create<FCmpInst>(P, L, R, Ctx.getInt1Ty()), Name);
  }

  Value *createCast(Opcode Op, Value *Src, Type *DestTy,
                    const std::string &Name = "") {
    return insert(arena().create<CastInst>(Op, Src, DestTy), Name);
  }

  Value *createSelect(Value *C, Value *T, Value *F,
                      const std::string &Name = "") {
    return insert(arena().create<SelectInst>(C, T, F), Name);
  }

  //===------------------------------------------------------------------===//
  // Memory
  //===------------------------------------------------------------------===//

  Value *createAlloca(Type *Ty, Value *Count = nullptr,
                      const std::string &Name = "") {
    if (!Count)
      Count = Ctx.getInt64(1);
    return insert(arena().create<AllocaInst>(Ty, Count, Ctx.getPtrTy()), Name);
  }

  Value *createLoad(Type *Ty, Value *Ptr, const std::string &Name = "") {
    return insert(arena().create<LoadInst>(Ty, Ptr), Name);
  }

  Instruction *createStore(Value *V, Value *Ptr) {
    auto *S = arena().create<StoreInst>(V, Ptr, Ctx.getVoidTy());
    BB->append(S);
    return S;
  }

  Value *createGEP(Type *ElemTy, Value *Base, Value *Index,
                   const std::string &Name = "") {
    return insert(arena().create<GEPInst>(ElemTy, Base, Index, Ctx.getPtrTy()), Name);
  }

  Value *createCall(Function *Callee, const std::vector<Value *> &Args,
                    const std::string &Name = "") {
    auto *C = arena().create<CallInst>(Callee, Args.data(), Args.size(),
                                       Callee->getReturnType());
    if (C->getType()->isVoid()) {
      BB->append(C);
      return C;
    }
    return insert(C, Name);
  }

  //===------------------------------------------------------------------===//
  // Control flow
  //===------------------------------------------------------------------===//

  PhiNode *createPhi(Type *Ty, const std::string &Name = "") {
    auto *P = arena().create<PhiNode>(Ty);
    if (!Name.empty())
      P->setName(Name);
    // φs group at the head, so a block that is empty or ends in a φ holds
    // only φs: append in O(1) (the reader and the generator build φs this
    // way). Otherwise the walk finds the first non-φ.
    if (BB->empty() || BB->back()->isPhi())
      BB->append(P);
    else
      BB->insert(BB->getFirstNonPhi(), P);
    return P;
  }

  Instruction *createBr(BasicBlock *Target) {
    auto *B = arena().create<BranchInst>(Target, Ctx.getVoidTy());
    BB->append(B);
    return B;
  }

  Instruction *createCondBr(Value *Cond, BasicBlock *T, BasicBlock *F) {
    auto *B = arena().create<BranchInst>(Cond, T, F, Ctx.getVoidTy());
    BB->append(B);
    return B;
  }

  Instruction *createRet(Value *V = nullptr) {
    auto *R = arena().create<ReturnInst>(V, Ctx.getVoidTy());
    BB->append(R);
    return R;
  }

  Instruction *createUnreachable() {
    auto *U = arena().create<UnreachableInst>(Ctx.getVoidTy());
    BB->append(U);
    return U;
  }

private:
  /// Every instruction is allocated from the insertion block's function
  /// body arena, so builder-created IR dies with the body it belongs to.
  Arena &arena() const {
    assert(BB && "no insertion point set");
    assert(BB->getParent() && "insertion block not attached to a function");
    return BB->getParent()->bodyArena();
  }

  Value *insert(Instruction *I, const std::string &Name) {
    if (!Name.empty())
      I->setName(Name);
    assert(BB && "no insertion point set");
    BB->append(I);
    return I;
  }

  Context &Ctx;
  BasicBlock *BB = nullptr;
};

} // namespace llvmmd

#endif // LLVMMD_IR_IRBUILDER_H
