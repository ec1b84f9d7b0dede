//===- IR.cpp - Out-of-line IR method implementations ---------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"

using namespace llvmmd;

const char *llvmmd::getOpcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::URem:
    return "urem";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::Select:
    return "select";
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::GEP:
    return "getelementptr";
  case Opcode::Call:
    return "call";
  case Opcode::Phi:
    return "phi";
  case Opcode::Store:
    return "store";
  case Opcode::Br:
    return "br";
  case Opcode::Ret:
    return "ret";
  case Opcode::Unreachable:
    return "unreachable";
  }
  return "<bad-opcode>";
}

const char *llvmmd::getPredName(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
    return "eq";
  case ICmpPred::NE:
    return "ne";
  case ICmpPred::SLT:
    return "slt";
  case ICmpPred::SLE:
    return "sle";
  case ICmpPred::SGT:
    return "sgt";
  case ICmpPred::SGE:
    return "sge";
  case ICmpPred::ULT:
    return "ult";
  case ICmpPred::ULE:
    return "ule";
  case ICmpPred::UGT:
    return "ugt";
  case ICmpPred::UGE:
    return "uge";
  }
  return "<bad-pred>";
}

const char *llvmmd::getPredName(FCmpPred P) {
  switch (P) {
  case FCmpPred::OEQ:
    return "oeq";
  case FCmpPred::ONE:
    return "one";
  case FCmpPred::OLT:
    return "olt";
  case FCmpPred::OLE:
    return "ole";
  case FCmpPred::OGT:
    return "ogt";
  case FCmpPred::OGE:
    return "oge";
  }
  return "<bad-pred>";
}

ICmpPred llvmmd::swapPred(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
    return ICmpPred::EQ;
  case ICmpPred::NE:
    return ICmpPred::NE;
  case ICmpPred::SLT:
    return ICmpPred::SGT;
  case ICmpPred::SLE:
    return ICmpPred::SGE;
  case ICmpPred::SGT:
    return ICmpPred::SLT;
  case ICmpPred::SGE:
    return ICmpPred::SLE;
  case ICmpPred::ULT:
    return ICmpPred::UGT;
  case ICmpPred::ULE:
    return ICmpPred::UGE;
  case ICmpPred::UGT:
    return ICmpPred::ULT;
  case ICmpPred::UGE:
    return ICmpPred::ULE;
  }
  return P;
}

ICmpPred llvmmd::invertPred(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
    return ICmpPred::NE;
  case ICmpPred::NE:
    return ICmpPred::EQ;
  case ICmpPred::SLT:
    return ICmpPred::SGE;
  case ICmpPred::SLE:
    return ICmpPred::SGT;
  case ICmpPred::SGT:
    return ICmpPred::SLE;
  case ICmpPred::SGE:
    return ICmpPred::SLT;
  case ICmpPred::ULT:
    return ICmpPred::UGE;
  case ICmpPred::ULE:
    return ICmpPred::UGT;
  case ICmpPred::UGT:
    return ICmpPred::ULE;
  case ICmpPred::UGE:
    return ICmpPred::ULT;
  }
  return P;
}

Function *Instruction::getFunction() const {
  return Parent ? Parent->getParent() : nullptr;
}

bool Instruction::mayWriteMemory() const {
  if (getOpcode() == Opcode::Store)
    return true;
  if (const auto *Call = dyn_cast<CallInst>(this))
    return Call->getCallee()->mayWriteMemory();
  return false;
}

bool Instruction::mayReadMemory() const {
  if (getOpcode() == Opcode::Load)
    return true;
  if (const auto *Call = dyn_cast<CallInst>(this))
    return !Call->getCallee()->isReadNone();
  return false;
}

bool Instruction::hasSideEffects() const {
  if (getOpcode() == Opcode::Store)
    return true;
  // Division can trap; the paper does not model runtime errors, and neither
  // does our validator, but the optimizer must still not sink/remove
  // arbitrary calls. Calls to functions that may write memory are effects.
  if (const auto *Call = dyn_cast<CallInst>(this))
    return Call->getCallee()->mayWriteMemory();
  return false;
}

CallInst::CallInst(Function *Callee, Value *const *Args, unsigned NumArgs,
                   Type *RetTy)
    : Instruction(Opcode::Call, RetTy), Callee(Callee) {
  assert(Callee && "call requires a callee");
  assert(NumArgs == Callee->getFunctionType()->getNumParams() &&
         "call argument count mismatch");
  for (unsigned I = 0; I != NumArgs; ++I)
    addOperand(Args[I]);
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> Out;
  if (!Parent)
    return Out;
  for (BasicBlock *BB : Parent->blocks()) {
    for (unsigned I = 0, E = BB->getNumSuccessors(); I != E; ++I) {
      if (BB->getSuccessor(I) == this) {
        Out.push_back(BB);
        break;
      }
    }
  }
  return Out;
}
