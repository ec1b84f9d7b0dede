//===- AliasAnalysis.cpp - Simple may-alias analysis ---------------------====//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasAnalysis.h"

#include "ir/Function.h"
#include "ir/Module.h"

using namespace llvmmd;

AliasAnalysis::AliasAnalysis(const Function &F) {
  if (F.isDeclaration())
    return;
  // An alloca escapes if its address (or a GEP of it) is stored anywhere,
  // passed to a call, or returned. We run a small fixpoint over the
  // "address-of" dataflow: derived = {alloca} closed under GEP. A GEP has
  // one base, so the derived pointers form one tree per alloca and one
  // seen set serves them all.
  FlatMap<bool> Seen;
  for (const auto &BB : F.blocks()) {
    for (const Instruction *I : *BB) {
      const auto *AI = dyn_cast<AllocaInst>(I);
      if (!AI)
        continue;
      bool Escapes = false;
      std::vector<const Value *> Work{AI};
      Seen.insert(flatKey(AI));
      while (!Work.empty() && !Escapes) {
        const Value *V = Work.back();
        Work.pop_back();
        for (const User *U : V->users()) {
          const auto *UI = dyn_cast<Instruction>(U);
          if (!UI)
            continue;
          switch (UI->getOpcode()) {
          case Opcode::Load:
            break; // reading through the pointer is fine
          case Opcode::Store:
            // Storing *to* the alloca is fine; storing the pointer escapes.
            if (cast<StoreInst>(UI)->getStoredValue() == V)
              Escapes = true;
            break;
          case Opcode::GEP:
            if (Seen.insert(flatKey(UI)))
              Work.push_back(UI);
            break;
          case Opcode::ICmp:
            break; // comparing addresses does not publish them
          case Opcode::Call:
          case Opcode::Ret:
            Escapes = true;
            break;
          case Opcode::Phi:
          case Opcode::Select:
            // Conservative: merged pointers are hard to track.
            Escapes = true;
            break;
          default:
            Escapes = true;
            break;
          }
          if (Escapes)
            break;
        }
      }
      if (!Escapes)
        NonEscaping.insert(flatKey(AI));
    }
  }
}

AliasAnalysis::Decomposed AliasAnalysis::decompose(const Value *Ptr) {
  int64_t Offset = 0;
  bool Known = true;
  const Value *V = Ptr;
  while (const auto *GEP = dyn_cast<GEPInst>(V)) {
    if (const auto *CI = dyn_cast<ConstantInt>(GEP->getIndex())) {
      Offset += CI->getSExtValue() *
                static_cast<int64_t>(GEP->getElementType()->getStoreSize());
    } else {
      Known = false;
    }
    V = GEP->getBase();
  }
  Decomposed D;
  D.Base = V;
  if (Known)
    D.Offset = Offset;
  return D;
}

bool AliasAnalysis::isIdentifiedObject(const Value *V) {
  return isa<AllocaInst>(V) || isa<GlobalVariable>(V);
}

AliasResult AliasAnalysis::alias(const Value *PtrA, unsigned SizeA,
                                 const Value *PtrB, unsigned SizeB) const {
  if (PtrA == PtrB)
    return AliasResult::MustAlias;

  Decomposed A = decompose(PtrA);
  Decomposed B = decompose(PtrB);

  if (A.Base == B.Base) {
    if (!A.Offset || !B.Offset)
      return AliasResult::MayAlias;
    int64_t OA = *A.Offset, OB = *B.Offset;
    if (OA == OB)
      return AliasResult::MustAlias;
    // Disjoint byte ranges?
    if (OA + static_cast<int64_t>(SizeA) <= OB ||
        OB + static_cast<int64_t>(SizeB) <= OA)
      return AliasResult::NoAlias;
    return AliasResult::MayAlias;
  }

  // Distinct identified objects never alias (the paper's "two pointers that
  // originate from two distinct stack allocations may not alias").
  if (isIdentifiedObject(A.Base) && isIdentifiedObject(B.Base))
    return AliasResult::NoAlias;

  // A non-escaping alloca cannot alias anything not derived from it.
  if ((isa<AllocaInst>(A.Base) && isNonEscapingAlloca(A.Base)) ||
      (isa<AllocaInst>(B.Base) && isNonEscapingAlloca(B.Base)))
    return AliasResult::NoAlias;

  return AliasResult::MayAlias;
}
