//===- Local.cpp - Local transformation utilities ---------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Local.h"

#include "analysis/CFG.h"
#include "ir/Folding.h"
#include "ir/Module.h"

using namespace llvmmd;

Constant *llvmmd::constantFoldInstruction(Instruction *I, Context &Ctx) {
  if (I->isBinaryOp()) {
    if (isFloatBinaryOp(I->getOpcode())) {
      const auto *A = dyn_cast<ConstantFP>(I->getOperand(0));
      const auto *B = dyn_cast<ConstantFP>(I->getOperand(1));
      if (!A || !B)
        return nullptr;
      return Ctx.getFloat(
          foldFloatBinary(I->getOpcode(), A->getValue(), B->getValue()));
    }
    const auto *A = dyn_cast<ConstantInt>(I->getOperand(0));
    const auto *B = dyn_cast<ConstantInt>(I->getOperand(1));
    if (!A || !B)
      return nullptr;
    auto R = foldIntBinary(I->getOpcode(), A->getSExtValue(),
                           B->getSExtValue(), A->getBitWidth());
    if (!R)
      return nullptr;
    return Ctx.getInt(I->getType(), *R);
  }
  if (auto *Cmp = dyn_cast<ICmpInst>(I)) {
    const auto *A = dyn_cast<ConstantInt>(Cmp->getLHS());
    const auto *B = dyn_cast<ConstantInt>(Cmp->getRHS());
    if (A && B)
      return Ctx.getBool(foldICmp(Cmp->getPred(), A->getSExtValue(),
                                  B->getSExtValue(), A->getBitWidth()));
    // Null pointer comparisons.
    if (isa<ConstantPointerNull>(Cmp->getLHS()) &&
        isa<ConstantPointerNull>(Cmp->getRHS())) {
      if (Cmp->getPred() == ICmpPred::EQ)
        return Ctx.getTrue();
      if (Cmp->getPred() == ICmpPred::NE)
        return Ctx.getFalse();
    }
    return nullptr;
  }
  if (auto *Cmp = dyn_cast<FCmpInst>(I)) {
    const auto *A = dyn_cast<ConstantFP>(Cmp->getLHS());
    const auto *B = dyn_cast<ConstantFP>(Cmp->getRHS());
    if (!A || !B)
      return nullptr;
    return Ctx.getBool(foldFCmp(Cmp->getPred(), A->getValue(), B->getValue()));
  }
  if (auto *Cast = dyn_cast<CastInst>(I)) {
    const auto *A = dyn_cast<ConstantInt>(Cast->getSrc());
    if (!A)
      return nullptr;
    return Ctx.getInt(I->getType(),
                      foldCast(I->getOpcode(), A->getSExtValue(),
                               A->getBitWidth(),
                               I->getType()->getBitWidth()));
  }
  if (auto *Sel = dyn_cast<SelectInst>(I)) {
    const auto *C = dyn_cast<ConstantInt>(Sel->getCondition());
    if (!C)
      return nullptr;
    Value *Arm = C->isTrue() ? Sel->getTrueValue() : Sel->getFalseValue();
    return dyn_cast<Constant>(Arm) ? cast<Constant>(Arm) : nullptr;
  }
  return nullptr;
}

Value *llvmmd::simplifyInstruction(Instruction *I, Context &Ctx) {
  if (Constant *C = constantFoldInstruction(I, Ctx))
    return C;

  if (I->isBinaryOp() && !isFloatBinaryOp(I->getOpcode())) {
    Value *L = I->getOperand(0);
    Value *R = I->getOperand(1);
    const auto *RC = dyn_cast<ConstantInt>(R);
    const auto *LC = dyn_cast<ConstantInt>(L);
    switch (I->getOpcode()) {
    case Opcode::Add:
      if (RC && RC->isZero())
        return L;
      if (LC && LC->isZero())
        return R;
      break;
    case Opcode::Sub:
      if (RC && RC->isZero())
        return L;
      if (L == R)
        return Ctx.getInt(I->getType(), 0);
      break;
    case Opcode::Mul:
      if (RC && RC->isOne())
        return L;
      if (LC && LC->isOne())
        return R;
      if ((RC && RC->isZero()) || (LC && LC->isZero()))
        return Ctx.getInt(I->getType(), 0);
      break;
    case Opcode::And:
      if (L == R)
        return L;
      if ((RC && RC->isZero()) || (LC && LC->isZero()))
        return Ctx.getInt(I->getType(), 0);
      if (RC && zeroExtend(RC->getSExtValue(), RC->getBitWidth()) ==
                    zeroExtend(-1, RC->getBitWidth()))
        return L;
      break;
    case Opcode::Or:
      if (L == R)
        return L;
      if (RC && RC->isZero())
        return L;
      if (LC && LC->isZero())
        return R;
      break;
    case Opcode::Xor:
      if (L == R)
        return Ctx.getInt(I->getType(), 0);
      if (RC && RC->isZero())
        return L;
      if (LC && LC->isZero())
        return R;
      break;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (RC && RC->isZero())
        return L;
      break;
    case Opcode::SDiv:
    case Opcode::UDiv:
      if (RC && RC->isOne())
        return L;
      break;
    default:
      break;
    }
  }

  if (auto *Cmp = dyn_cast<ICmpInst>(I)) {
    if (Cmp->getLHS() == Cmp->getRHS()) {
      switch (Cmp->getPred()) {
      case ICmpPred::EQ:
      case ICmpPred::SLE:
      case ICmpPred::SGE:
      case ICmpPred::ULE:
      case ICmpPred::UGE:
        return Ctx.getTrue();
      case ICmpPred::NE:
      case ICmpPred::SLT:
      case ICmpPred::SGT:
      case ICmpPred::ULT:
      case ICmpPred::UGT:
        return Ctx.getFalse();
      }
    }
  }

  if (auto *Sel = dyn_cast<SelectInst>(I)) {
    if (Sel->getTrueValue() == Sel->getFalseValue())
      return Sel->getTrueValue();
    if (const auto *C = dyn_cast<ConstantInt>(Sel->getCondition()))
      return C->isTrue() ? Sel->getTrueValue() : Sel->getFalseValue();
  }

  if (auto *Phi = dyn_cast<PhiNode>(I)) {
    Value *Common = nullptr;
    for (unsigned K = 0, E = Phi->getNumIncoming(); K != E; ++K) {
      Value *V = Phi->getIncomingValue(K);
      if (V == Phi)
        continue; // self-reference through a back edge
      if (Common && V != Common)
        return nullptr;
      Common = V;
    }
    return Common;
  }

  if (auto *GEP = dyn_cast<GEPInst>(I)) {
    const auto *Idx = dyn_cast<ConstantInt>(GEP->getIndex());
    if (Idx && Idx->isZero())
      return GEP->getBase();
  }

  return nullptr;
}

bool llvmmd::isTriviallyDead(const Instruction *I) {
  if (!I->use_empty())
    return false;
  if (I->isTerminator() || I->getOpcode() == Opcode::Store)
    return false;
  if (const auto *Call = dyn_cast<CallInst>(I))
    return !Call->getCallee()->mayWriteMemory();
  return true;
}

unsigned llvmmd::removeDeadInstructions(Function &F) {
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      std::vector<Instruction *> Dead;
      for (Instruction *I : *BB)
        if (isTriviallyDead(I))
          Dead.push_back(I);
      for (Instruction *I : Dead) {
        BB->erase(I);
        ++Removed;
        Changed = true;
      }
    }
  }
  return Removed;
}

void llvmmd::removePhiEntriesFor(BasicBlock *BB, BasicBlock *Pred) {
  for (PhiNode *P : BB->phis()) {
    int Idx = P->getBlockIndex(Pred);
    if (Idx >= 0)
      P->removeIncoming(static_cast<unsigned>(Idx));
  }
}

unsigned llvmmd::removeUnreachableBlocks(Function &F) {
  if (F.isDeclaration())
    return 0;
  // Indexed by block number.
  std::vector<uint8_t> Reachable(F.getMaxBlockNumber(), 0);
  for (BasicBlock *BB : reachableBlocks(F))
    Reachable[BB->getNumber()] = 1;
  std::vector<BasicBlock *> Dead;
  for (const auto &BB : F.blocks())
    if (!Reachable[BB->getNumber()])
      Dead.push_back(BB);
  if (Dead.empty())
    return 0;

  // Remove phi entries in reachable blocks that came from dead blocks.
  for (BasicBlock *BB : Dead)
    for (BasicBlock *Succ : BB->successors())
      if (Reachable[Succ->getNumber()])
        removePhiEntriesFor(Succ, BB);

  // Break references out of dead blocks, then delete them.
  for (BasicBlock *BB : Dead)
    for (Instruction *I : *BB)
      I->dropAllReferences();
  for (BasicBlock *BB : Dead) {
    // Any remaining uses of dead instructions must come from other dead
    // blocks (already dropped) or be self-references; replace with undef to
    // be safe against malformed input.
    for (Instruction *I : *BB)
      if (!I->use_empty())
        I->replaceAllUsesWith(
            F.getParent()->getContext().getUndef(I->getType()));
    F.eraseBlock(BB);
  }
  return Dead.size();
}

unsigned llvmmd::foldSingleEntryPhis(Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks()) {
    for (auto It = BB->begin(); It != BB->end() && (*It)->isPhi();) {
      auto *P = cast<PhiNode>(*It++);
      if (P->getNumIncoming() != 1)
        continue;
      P->replaceAllUsesWith(P->getIncomingValue(0));
      BB->erase(P);
      ++N;
    }
  }
  return N;
}
