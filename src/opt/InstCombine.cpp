//===- InstCombine.cpp - Peephole canonicalization ---------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction-level canonicalizations oriented exactly like LLVM's (and
/// hence like the validator's Canonicalize rule set): a+a ↓ shl a 1,
/// mul by a power of two ↓ shl, add of a negative constant ↓ sub,
/// constants to the right of commutative operators and comparisons. The
/// paper excludes instcombine from its evaluated pipeline ("conceptually
/// simple to validate but requires many rules"); we ship it as the
/// extension experiment.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Module.h"
#include "opt/Local.h"

using namespace llvmmd;

namespace {

class InstCombinePass : public FunctionPass {
public:
  const char *getName() const override { return "instcombine"; }

  bool run(Function &F, FunctionAnalyses &) const override {
    if (F.isDeclaration())
      return false;
    Context &Ctx = F.getParent()->getContext();
    bool Changed = false;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (const auto &BB : F.blocks()) {
        for (auto It = BB->begin(); It != BB->end();) {
          Instruction *I = *It++;
          if (Value *Simpl = simplifyInstruction(I, Ctx)) {
            I->replaceAllUsesWith(Simpl);
            BB->erase(I);
            Progress = true;
            continue;
          }
          if (Instruction *New = combine(I, Ctx)) {
            BB->insert(BB->iteratorTo(I), New);
            New->setName(I->getName());
            I->replaceAllUsesWith(New);
            BB->erase(I);
            Progress = true;
            continue;
          }
          Progress |= canonicalizeInPlace(I, Ctx);
        }
      }
      Changed |= Progress;
    }
    Changed |= removeDeadInstructions(F) > 0;
    return Changed;
  }

private:
  /// Rewrites that build a replacement instruction.
  Instruction *combine(Instruction *I, Context &Ctx) const {
    if (!I->isBinaryOp())
      return nullptr;
    Value *L = I->getOperand(0);
    Value *R = I->getOperand(1);
    const auto *RC = dyn_cast<ConstantInt>(R);
    switch (I->getOpcode()) {
    case Opcode::Add:
      // a + a  ==>  shl a, 1   (LLVM prefers the shift; paper §4)
      if (L == R)
        return I->getFunction()->bodyArena().create<BinaryOperator>(
            Opcode::Shl, L, Ctx.getInt(I->getType(), 1));
      // a + (-k)  ==>  a - k
      if (RC && RC->getSExtValue() < 0 &&
          RC->getSExtValue() != signExtend(int64_t(1) << (RC->getBitWidth() - 1),
                                           RC->getBitWidth()))
        return I->getFunction()->bodyArena().create<BinaryOperator>(
            Opcode::Sub, L, Ctx.getInt(I->getType(), -RC->getSExtValue()));
      return nullptr;
    case Opcode::Mul:
      // a * 2^k  ==>  shl a, k
      if (RC && RC->isPowerOf2()) {
        uint64_t V = RC->getZExtValue();
        unsigned K = 0;
        while ((uint64_t(1) << K) != V)
          ++K;
        return I->getFunction()->bodyArena().create<BinaryOperator>(
            Opcode::Shl, L, Ctx.getInt(I->getType(), K));
      }
      return nullptr;
    default:
      return nullptr;
    }
  }

  /// Rewrites that mutate the instruction in place (operand/pred swaps).
  bool canonicalizeInPlace(Instruction *I, Context &Ctx) const {
    (void)Ctx;
    // Commutative op with constant on the left: move it right.
    if (I->isBinaryOp() && isCommutativeOp(I->getOpcode())) {
      if (isa<ConstantInt, ConstantFP>(I->getOperand(0)) &&
          !isa<ConstantInt, ConstantFP>(I->getOperand(1))) {
        Value *L = I->getOperand(0);
        Value *R = I->getOperand(1);
        I->setOperand(0, R);
        I->setOperand(1, L);
        return true;
      }
    }
    // icmp with constant on the left: swap operands and predicate
    // (gt 10 a ↓ lt a 10 — paper §4).
    if (auto *Cmp = dyn_cast<ICmpInst>(I)) {
      if (isa<ConstantInt>(Cmp->getLHS()) &&
          !isa<ConstantInt>(Cmp->getRHS())) {
        Value *L = Cmp->getLHS();
        Value *R = Cmp->getRHS();
        Cmp->setOperand(0, R);
        Cmp->setOperand(1, L);
        Cmp->setPred(swapPred(Cmp->getPred()));
        return true;
      }
    }
    return false;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createInstCombinePass() {
  return std::make_unique<InstCombinePass>();
}
} // namespace llvmmd
