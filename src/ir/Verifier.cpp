//===- Verifier.cpp - IR well-formedness checks ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/Dominators.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/FlatMap.h"

#include <vector>

using namespace llvmmd;

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> &Errors)
      : F(F), Errors(Errors) {}

  bool run() {
    size_t Before = Errors.size();
    checkStructure();
    if (Errors.size() == Before) {
      // Dominance checks only make sense on structurally sound IR.
      checkSSA();
    }
    return Errors.size() == Before;
  }

private:
  void report(const std::string &Msg) {
    Errors.push_back("function '" + F.getName() + "': " + Msg);
  }

  void checkStructure() {
    if (F.isDeclaration())
      return;
    // Blocks by number, so membership and predecessor lists cost one
    // pass instead of one whole-function scan per block.
    std::vector<const BasicBlock *> ByNumber(F.getMaxBlockNumber(), nullptr);
    for (const auto &BB : F.blocks())
      ByNumber[BB->getNumber()] = BB;
    auto InFunction = [&](const BasicBlock *BB) {
      return BB->getNumber() < ByNumber.size() &&
             ByNumber[BB->getNumber()] == BB;
    };
    std::vector<std::vector<const BasicBlock *>> Preds(ByNumber.size());

    for (const auto &BB : F.blocks()) {
      if (BB->empty()) {
        report("block '" + BB->getName() + "' is empty");
        continue;
      }
      const Instruction *Term = BB->getTerminator();
      if (!Term) {
        report("block '" + BB->getName() + "' has no terminator");
        continue;
      }
      bool SeenNonPhi = false;
      for (const Instruction *I : *BB) {
        if (I->isTerminator() && I != Term)
          report("terminator in the middle of block '" + BB->getName() + "'");
        if (I->isPhi()) {
          if (SeenNonPhi)
            report("phi after non-phi in block '" + BB->getName() + "'");
        } else {
          SeenNonPhi = true;
        }
        if (I->getParent() != BB)
          report("instruction with wrong parent in '" + BB->getName() + "'");
        for (const Value *Op : I->operands())
          if (!Op)
            report("null operand in '" + BB->getName() + "'");
      }
      for (const BasicBlock *Succ : BB->successors()) {
        if (!InFunction(Succ)) {
          report("branch to block outside function from '" + BB->getName() +
                 "'");
          continue;
        }
        auto &SuccPreds = Preds[Succ->getNumber()];
        if (SuccPreds.empty() || SuccPreds.back() != BB)
          SuccPreds.push_back(BB);
      }
      if (const auto *Ret = dyn_cast<ReturnInst>(Term)) {
        Type *RetTy = F.getReturnType();
        if (RetTy->isVoid() != !Ret->hasReturnValue())
          report("return value does not match function return type");
        else if (Ret->hasReturnValue() &&
                 Ret->getReturnValue()->getType() != RetTy)
          report("return value type mismatch");
      }
    }

    // Phi incoming sets must match predecessors exactly.
    for (const auto &BB : F.blocks()) {
      const auto &BBPreds = Preds[BB->getNumber()];
      for (const PhiNode *P : BB->phis()) {
        if (P->getNumIncoming() != BBPreds.size()) {
          report("phi in '" + BB->getName() +
                 "' has wrong number of incoming values");
          continue;
        }
        for (const BasicBlock *Pred : BBPreds)
          if (P->getBlockIndex(Pred) < 0)
            report("phi in '" + BB->getName() + "' missing entry for '" +
                   Pred->getName() + "'");
      }
    }
  }

  void checkSSA() {
    if (F.isDeclaration())
      return;
    DominatorTree DT(F);
    // The instructions the walk has passed: a same-block operand must be
    // among them when its user is checked.
    FlatMap<bool> Passed;
    Passed.reserve(F.getInstructionCount());
    for (const auto &BB : F.blocks()) {
      if (!DT.isReachable(BB))
        continue;
      for (const Instruction *I : *BB) {
        if (const auto *P = dyn_cast<PhiNode>(I))
          checkPhi(DT, P);
        else
          checkOperands(DT, I, Passed);
        Passed.set(flatKey(I), true);
      }
    }
  }

  void checkPhi(const DominatorTree &DT, const PhiNode *P) {
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
      const auto *Def = dyn_cast<Instruction>(P->getIncomingValue(K));
      if (!Def)
        continue;
      if (!DT.isReachable(P->getIncomingBlock(K)))
        continue;
      if (!DT.dominates(Def->getParent(), P->getIncomingBlock(K)))
        report("phi incoming value does not dominate edge in '" +
               P->getParent()->getName() + "'");
    }
  }

  void checkOperands(const DominatorTree &DT, const Instruction *I,
                     const FlatMap<bool> &Passed) {
    const BasicBlock *BB = I->getParent();
    for (const Value *Op : I->operands()) {
      const auto *Def = dyn_cast<Instruction>(Op);
      if (!Def)
        continue;
      if (!DT.isReachable(Def->getParent())) {
        report("use of instruction from unreachable block in '" +
               BB->getName() + "'");
        continue;
      }
      if (Def->getParent() == BB) {
        // Same block: def must come first.
        if (!Passed.find(flatKey(Def)))
          report("use before def of '" + Def->getName() + "' in '" +
                 BB->getName() + "'");
      } else if (!DT.dominates(Def->getParent(), BB)) {
        report("definition of '" + Def->getName() +
               "' does not dominate use in '" + BB->getName() + "'");
      }
    }
  }

  const Function &F;
  std::vector<std::string> &Errors;
};

} // namespace

bool llvmmd::verifyFunction(const Function &F,
                            std::vector<std::string> &Errors) {
  return FunctionVerifier(F, Errors).run();
}

bool llvmmd::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  bool OK = true;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      OK &= verifyFunction(*F, Errors);
  return OK;
}
