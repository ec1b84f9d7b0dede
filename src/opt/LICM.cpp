//===- LICM.cpp - Loop invariant code motion ---------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hoists loop-invariant, safely-speculatable computations to the loop
/// preheader. Loads hoist when no store or memory-writing call inside the
/// loop may alias them; calls hoist when readnone, or readonly with no
/// writer in the loop — the latter is LLVM's "libc knowledge" (strlen et
/// al.) that the paper identifies as the main source of LICM false alarms
/// (Figure 7) because the validator lacks the matching rules unless its
/// Libc rule set is enabled.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/FunctionAnalyses.h"
#include "analysis/LoopInfo.h"
#include "ir/Module.h"
#include "opt/LoopUtils.h"
#include "support/FlatMap.h"

#include <vector>

using namespace llvmmd;

namespace {

class LICMPass : public FunctionPass {
public:
  const char *getName() const override { return "licm"; }

  bool run(Function &F, FunctionAnalyses &FA) const override {
    if (F.isDeclaration())
      return false;
    std::shared_ptr<LoopInfo> LI = FA.loopInfo(F);
    if (LI->isIrreducible())
      return false;
    AliasAnalysis AA(F);
    bool Changed = false;
    for (Loop *L : LI->getLoopsInnermostFirst())
      Changed |= processLoop(F, *L, AA);
    return Changed;
  }

private:
  bool processLoop(Function &F, Loop &L, const AliasAnalysis &AA) const {
    BasicBlock *Preheader = ensurePreheader(F, L);
    if (!Preheader)
      return false;

    // Collect the loop's memory writers once.
    std::vector<const StoreInst *> Stores;
    bool HasWriterCall = false;
    for (BasicBlock *BB : L.getBlocks()) {
      for (const Instruction *I : *BB) {
        if (const auto *St = dyn_cast<StoreInst>(I))
          Stores.push_back(St);
        else if (const auto *Call = dyn_cast<CallInst>(I))
          if (Call->getCallee()->mayWriteMemory())
            HasWriterCall = true;
      }
    }

    FlatMap<bool> Hoisted;
    auto IsInvariantOperand = [&](const Value *V) {
      if (isDefinedOutsideLoop(V, L))
        return true;
      const auto *I = dyn_cast<Instruction>(V);
      return I && Hoisted.contains(flatKey(I));
    };

    bool Changed = false;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (BasicBlock *BB : L.getBlocks()) {
        for (auto It = BB->begin(); It != BB->end();) {
          Instruction *I = *It++;
          if (Hoisted.contains(flatKey(I)))
            continue;
          if (!canHoist(I, L, AA, Stores, HasWriterCall))
            continue;
          bool OperandsInvariant = true;
          for (Value *Op : I->operands())
            if (!IsInvariantOperand(Op)) {
              OperandsInvariant = false;
              break;
            }
          if (!OperandsInvariant)
            continue;
          // Move to the preheader, before its terminator.
          BB->remove(I);
          Preheader->insert(std::prev(Preheader->end()), I);
          Hoisted.insert(flatKey(I));
          Progress = true;
          Changed = true;
        }
      }
    }
    return Changed;
  }

  bool canHoist(const Instruction *I, const Loop &L, const AliasAnalysis &AA,
                const std::vector<const StoreInst *> &Stores,
                bool HasWriterCall) const {
    switch (I->getOpcode()) {
    case Opcode::Phi:
    case Opcode::Br:
    case Opcode::Ret:
    case Opcode::Unreachable:
    case Opcode::Store:
    case Opcode::Alloca:
      return false;
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem: {
      // Speculation safety: only with a provably nonzero constant divisor.
      const auto *C = dyn_cast<ConstantInt>(I->getOperand(1));
      return C && !C->isZero() &&
             !(C->getSExtValue() == -1); // avoid INT_MIN/-1 as well
    }
    case Opcode::Load: {
      if (HasWriterCall)
        return false;
      const auto *Ld = cast<LoadInst>(I);
      unsigned Size = Ld->getType()->getStoreSize();
      for (const StoreInst *St : Stores) {
        if (AA.alias(St->getPointer(),
                     St->getStoredValue()->getType()->getStoreSize(),
                     Ld->getPointer(), Size) != AliasResult::NoAlias)
          return false;
      }
      (void)L;
      return true;
    }
    case Opcode::Call: {
      const auto *Call = cast<CallInst>(I);
      const Function *Callee = Call->getCallee();
      if (Callee->isReadNone())
        return true;
      // Readonly calls (strlen...) hoist when nothing the loop writes can
      // alias any pointer the callee might read through — LLVM's libc
      // knowledge, and the paper's main LICM false-alarm source.
      if (Callee->isReadOnly()) {
        if (HasWriterCall)
          return false;
        for (unsigned A = 0, E = Call->getNumArgs(); A != E; ++A) {
          const Value *Arg = Call->getArg(A);
          if (!Arg->getType()->isPointer())
            continue;
          for (const StoreInst *St : Stores)
            if (AA.alias(St->getPointer(),
                         St->getStoredValue()->getType()->getStoreSize(),
                         Arg, 4096) != AliasResult::NoAlias)
              return false;
        }
        return true;
      }
      return false;
    }
    default:
      return true; // pure arithmetic, comparisons, casts, selects, GEPs
    }
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createLICMPass() {
  return std::make_unique<LICMPass>();
}
} // namespace llvmmd
