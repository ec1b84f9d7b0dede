//===- GatedSSA.cpp - Gating analysis for Monadic Gated SSA -----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "gated/GatedSSA.h"

#include "ir/Module.h"

#include <algorithm>

using namespace llvmmd;

//===----------------------------------------------------------------------===//
// GateFactory
//===----------------------------------------------------------------------===//

const GateExpr *GateFactory::makeCond(Value *C) {
  return intern({GateExpr::Kind::Cond, C, nullptr, nullptr});
}

const GateExpr *GateFactory::makeNot(const GateExpr *A) {
  if (A->K == GateExpr::Kind::True)
    return getFalse();
  if (A->K == GateExpr::Kind::False)
    return getTrue();
  if (A->K == GateExpr::Kind::Not)
    return A->A;
  return intern({GateExpr::Kind::Not, nullptr, A, nullptr});
}

const GateExpr *GateFactory::makeAnd(const GateExpr *A, const GateExpr *B) {
  if (A->K == GateExpr::Kind::True)
    return B;
  if (B->K == GateExpr::Kind::True)
    return A;
  if (A->K == GateExpr::Kind::False || B->K == GateExpr::Kind::False)
    return getFalse();
  return intern({GateExpr::Kind::And, nullptr, A, B});
}

const GateExpr *GateFactory::makeOr(const GateExpr *A, const GateExpr *B) {
  if (A->K == GateExpr::Kind::False)
    return B;
  if (B->K == GateExpr::Kind::False)
    return A;
  if (A->K == GateExpr::Kind::True || B->K == GateExpr::Kind::True)
    return getTrue();
  return intern({GateExpr::Kind::Or, nullptr, A, B});
}

//===----------------------------------------------------------------------===//
// GatingAnalysis
//===----------------------------------------------------------------------===//

GatingAnalysis::GatingAnalysis(const Function &F) : F(F) {
  if (F.isDeclaration()) {
    Supported = false;
    Reason = "declaration";
    return;
  }
  DT.emplace(F);
  LI.emplace(F, *DT);
  if (LI->isIrreducible()) {
    Supported = false;
    Reason = "irreducible control flow";
    return;
  }
  // Single return block (reachable), as the validator compares one pair of
  // (return value, final memory) roots.
  unsigned Rets = 0;
  for (const BasicBlock *BB : DT->getRPO())
    if (BB->getTerminator() && isa<ReturnInst>(BB->getTerminator()))
      ++Rets;
  if (Rets != 1) {
    Supported = false;
    Reason = Rets == 0 ? "no reachable return" : "multiple return blocks";
    return;
  }
}

namespace {

/// The PredCache key of \p BB's predicate relative to \p Root.
uint64_t predKey(const BasicBlock *Root, const BasicBlock *BB) {
  return (uint64_t(Root->getNumber()) + 1) << 32 | BB->getNumber();
}

/// True if Pred -> Succ is a back edge (Succ is the header of a loop that
/// contains Pred).
bool isBackEdge(const LoopInfo &LI, const BasicBlock *Pred,
                const BasicBlock *Succ) {
  const Loop *L = LI.getLoopFor(Succ);
  return L && L->getHeader() == Succ && L->contains(Pred);
}

/// Branch condition contribution of the edge From -> To: true for
/// unconditional edges; c or !c for conditional ones.
const GateExpr *edgeCondition(GateFactory &GF, const BasicBlock *From,
                              const BasicBlock *To) {
  const auto *Br = dyn_cast_or_null<BranchInst>(From->getTerminator());
  if (!Br || !Br->isConditional())
    return GF.getTrue();
  if (Br->getSuccessor(0) == To && Br->getSuccessor(1) == To)
    return GF.getTrue();
  if (Br->getSuccessor(0) == To)
    return GF.makeCond(Br->getCondition());
  return GF.makeNot(GF.makeCond(Br->getCondition()));
}

/// Outermost loop containing \p BB but not containing \p Avoid; null if
/// none.
const Loop *outermostLoopNotContaining(const LoopInfo &LI,
                                       const BasicBlock *BB,
                                       const BasicBlock *Avoid) {
  const Loop *Best = nullptr;
  for (const Loop *L = LI.getLoopFor(BB); L; L = L->getParent())
    if (!L->contains(Avoid))
      Best = L;
  return Best;
}

/// Number of exit edges (Exiting, Exit successor pairs) of \p L.
unsigned countExitEdges(const Loop &L) {
  unsigned N = 0;
  for (const BasicBlock *BB : L.getBlocks())
    for (unsigned S = 0, E = BB->getNumSuccessors(); S != E; ++S)
      if (!L.contains(BB->getSuccessor(S)))
        ++N;
  return N;
}

} // namespace

const GateExpr *
GatingAnalysis::computeEdgePredicate(const BasicBlock *From,
                                     const BasicBlock *To,
                                     const BasicBlock *Root) {
  // Recursively computes the path predicate of a *block* relative to Root,
  // then conjoins the edge condition. Implemented iteratively with an
  // explicit worklist to avoid deep recursion on long chains.
  struct Helper {
    GatingAnalysis &GA;
    const BasicBlock *Root;

    const GateExpr *blockPred(const BasicBlock *BB) {
      if (BB == Root)
        return GA.Factory.getTrue();
      const uint64_t Key = predKey(Root, BB);
      if (const GateExpr *const *Hit = GA.PredCache.find(Key))
        return *Hit;
      // Seed the cache to break accidental cycles (should not occur on
      // reducible forward graphs, but stay safe).
      GA.PredCache.set(Key, GA.Factory.getFalse());
      GateFactory &GF = GA.Factory;
      const LoopInfo &LI = *GA.LI;
      const GateExpr *Acc = GF.getFalse();
      for (const BasicBlock *P : GA.DT->predecessors(BB)) {
        if (isBackEdge(LI, P, BB))
          continue;
        // Does this edge leave a loop that does not contain BB?
        if (const Loop *L = outermostLoopNotContaining(LI, P, BB)) {
          if (countExitEdges(*L) != 1) {
            GA.Supported = false;
            GA.Reason = "gate crosses multi-exit loop";
            return GF.getFalse();
          }
          // Single-exit loop + assumed termination: control that reaches
          // the loop leaves through this edge. If the predicate root is
          // itself inside the loop, the exit is certain; otherwise the
          // contribution is the loop's entry predicate.
          if (L->contains(Root)) {
            Acc = GF.getTrue();
            continue;
          }
          const GateExpr *Entry = GF.getFalse();
          for (const BasicBlock *E : L->getEntering())
            Entry = GF.makeOr(
                Entry, GF.makeAnd(blockPred(E),
                                  edgeCondition(GF, E, L->getHeader())));
          Acc = GF.makeOr(Acc, Entry);
          continue;
        }
        Acc = GF.makeOr(
            Acc, GF.makeAnd(blockPred(P), edgeCondition(GF, P, BB)));
      }
      GA.PredCache.set(Key, Acc);
      return Acc;
    }
  };

  Helper H{*this, Root};
  GateFactory &GF = Factory;
  const LoopInfo &LIRef = *LI;
  // The edge itself may be a loop-exit edge.
  if (const Loop *L = outermostLoopNotContaining(LIRef, From, To)) {
    if (countExitEdges(*L) != 1) {
      Supported = false;
      Reason = "gate crosses multi-exit loop";
      return GF.getFalse();
    }
    if (L->contains(Root))
      return GF.getTrue(); // exit certain, given termination
    const GateExpr *Entry = GF.getFalse();
    for (const BasicBlock *E : L->getEntering())
      Entry = GF.makeOr(Entry, GF.makeAnd(H.blockPred(E),
                                          edgeCondition(GF, E,
                                                        L->getHeader())));
    return Entry;
  }
  return GF.makeAnd(H.blockPred(From), edgeCondition(GF, From, To));
}

const GateExpr *GatingAnalysis::getEdgeGate(const BasicBlock *Pred,
                                            const BasicBlock *Block) {
  assert(Supported && "query on unsupported function");
  const BasicBlock *Root = DT->getIDom(Block);
  assert(Root && "edge gate for entry block requested");
  return computeEdgePredicate(Pred, Block, Root);
}

const GateExpr *GatingAnalysis::getStayCondition(const Loop &L,
                                                 const BasicBlock *Exiting,
                                                 const BasicBlock *Exit) const {
  auto &GF = const_cast<GateFactory &>(Factory);
  const auto *Br = dyn_cast_or_null<BranchInst>(Exiting->getTerminator());
  if (!Br || !Br->isConditional())
    return GF.getFalse(); // unconditional exit: never stays
  (void)Exit;
  const GateExpr *Stay = GF.getFalse();
  if (L.contains(Br->getSuccessor(0)))
    Stay = GF.makeOr(Stay, GF.makeCond(Br->getCondition()));
  if (L.contains(Br->getSuccessor(1)))
    Stay = GF.makeOr(Stay, GF.makeNot(GF.makeCond(Br->getCondition())));
  return Stay;
}

std::pair<const BasicBlock *, const BasicBlock *>
GatingAnalysis::getPrimaryExitEdge(const Loop &L) const {
  const BasicBlock *BestFrom = nullptr;
  const BasicBlock *BestTo = nullptr;
  unsigned BestKey = ~0u;
  for (const BasicBlock *BB : L.getBlocks()) {
    int Idx = DT->getRPONumber(BB);
    if (Idx < 0)
      continue;
    for (unsigned S = 0, E = BB->getNumSuccessors(); S != E; ++S) {
      const BasicBlock *Succ = BB->getSuccessor(S);
      if (!L.contains(Succ)) {
        unsigned Key = static_cast<unsigned>(Idx) * 4 + S;
        if (Key < BestKey) {
          BestKey = Key;
          BestFrom = BB;
          BestTo = Succ;
        }
      }
    }
  }
  return {BestFrom, BestTo};
}
