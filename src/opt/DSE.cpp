//===- DSE.cpp - Dead store elimination ---------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Removes stores that are overwritten before being read (block-local, with
/// alias analysis) and stores into non-escaping allocas that are never
/// loaded. In the value graph these removals correspond exactly to the
/// load/store simplification rules (10)-(11) plus store-over-store
/// collapsing, so DSE validates under the LoadStore rule set.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/AliasAnalysis.h"
#include "ir/Module.h"

#include <vector>

using namespace llvmmd;

namespace {

class DSEPass : public FunctionPass {
public:
  const char *getName() const override { return "dse"; }

  bool run(Function &F, FunctionAnalyses &) const override {
    if (F.isDeclaration())
      return false;
    AliasAnalysis AA(F);
    bool Changed = false;
    Changed |= removeOverwrittenStores(F, AA);
    Changed |= removeNeverLoadedAllocaStores(F, AA);
    return Changed;
  }

private:
  /// store P; ...no read of P...; store P  ==>  drop the first store.
  bool removeOverwrittenStores(Function &F, const AliasAnalysis &AA) const {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      for (auto It = BB->begin(); It != BB->end();) {
        auto *St = dyn_cast<StoreInst>(*It++);
        if (!St)
          continue;
        unsigned Size = St->getStoredValue()->getType()->getStoreSize();
        for (auto J = It; J != BB->end(); ++J) {
          Instruction *Next = *J;
          if (auto *Ld = dyn_cast<LoadInst>(Next)) {
            if (AA.alias(Ld->getPointer(), Ld->getType()->getStoreSize(),
                         St->getPointer(), Size) != AliasResult::NoAlias)
              break; // read may observe the store
            continue;
          }
          if (auto *Call = dyn_cast<CallInst>(Next)) {
            if (!Call->getCallee()->isReadNone())
              break; // callee may read memory
            continue;
          }
          if (auto *St2 = dyn_cast<StoreInst>(Next)) {
            unsigned Size2 = St2->getStoredValue()->getType()->getStoreSize();
            if (AA.alias(St2->getPointer(), Size2, St->getPointer(), Size) ==
                    AliasResult::MustAlias &&
                Size2 >= Size) {
              BB->erase(St);
              Changed = true;
              break;
            }
            continue;
          }
          // Arithmetic etc. cannot observe memory.
        }
      }
    }
    return Changed;
  }

  /// Stores into a non-escaping alloca that is never loaded from are dead.
  bool removeNeverLoadedAllocaStores(Function &F,
                                     const AliasAnalysis &AA) const {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      for (Instruction *I : *BB) {
        auto *AI = dyn_cast<AllocaInst>(I);
        if (!AI || !AA.isNonEscapingAlloca(AI))
          continue;
        // Any load in the function that may read this alloca?
        bool Loaded = false;
        std::vector<StoreInst *> Stores;
        for (const auto &BB2 : F.blocks()) {
          for (Instruction *I2 : *BB2) {
            if (auto *Ld = dyn_cast<LoadInst>(I2)) {
              if (AA.alias(Ld->getPointer(), AI) != AliasResult::NoAlias)
                Loaded = true;
            } else if (auto *St = dyn_cast<StoreInst>(I2)) {
              if (AA.alias(St->getPointer(), AI) != AliasResult::NoAlias &&
                  St->getStoredValue() != AI)
                Stores.push_back(St);
            }
          }
          if (Loaded)
            break;
        }
        if (Loaded)
          continue;
        for (StoreInst *St : Stores) {
          St->getParent()->erase(St);
          Changed = true;
        }
      }
    }
    return Changed;
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createDSEPass() {
  return std::make_unique<DSEPass>();
}
} // namespace llvmmd
