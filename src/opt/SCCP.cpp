//===- SCCP.cpp - Sparse conditional constant propagation ------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic Wegman-Zadeck sparse conditional constant propagation over
/// the three-level lattice unknown < constant < overdefined, tracking edge
/// executability so constants propagate through branches that are never
/// taken. One of the paper's headline optimizations (Figure 8 ablates the
/// validator rules it needs: constant folding and φ simplification).
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Folding.h"
#include "ir/Module.h"
#include "opt/Local.h"
#include "support/FlatMap.h"

#include <vector>

using namespace llvmmd;

namespace {

struct LatticeValue {
  enum class State : uint8_t { Unknown, Const, Overdefined } S = State::Unknown;
  Constant *C = nullptr;

  bool isUnknown() const { return S == State::Unknown; }
  bool isConst() const { return S == State::Const; }
  bool isOverdefined() const { return S == State::Overdefined; }
};

class SCCPSolver {
public:
  explicit SCCPSolver(Function &F)
      : F(F), Ctx(F.getParent()->getContext()) {}

  bool run() {
    if (F.isDeclaration())
      return false;
    Values.reserve(F.getInstructionCount());
    ExecutableBlocks.assign(F.getMaxBlockNumber(), 0);
    ExecutableEdges.assign(F.getMaxBlockNumber(), 0);
    markBlockExecutable(F.getEntryBlock());
    solve();
    return rewrite();
  }

private:
  LatticeValue getLattice(Value *V) {
    if (auto *C = dyn_cast<Constant>(V)) {
      // Globals and functions are addresses: constant but not foldable into
      // arithmetic; model as overdefined to keep things simple, except for
      // genuine scalar literals.
      if (isa<ConstantInt>(C) || isa<ConstantFP>(C))
        return {LatticeValue::State::Const, C};
      return {LatticeValue::State::Overdefined, nullptr};
    }
    if (isa<Argument>(V))
      return {LatticeValue::State::Overdefined, nullptr};
    const LatticeValue *LV = Values.find(flatKey(V));
    return LV ? *LV : LatticeValue();
  }

  void markOverdefined(Instruction *I) {
    if (getLattice(I).isOverdefined())
      return;
    Values.set(flatKey(I), {LatticeValue::State::Overdefined, nullptr});
    InstWorklist.push_back(I);
  }

  void markConstant(Instruction *I, Constant *C) {
    LatticeValue LV = getLattice(I);
    if (LV.isConst() && LV.C == C)
      return;
    if (LV.isOverdefined())
      return;
    if (LV.isConst() && LV.C != C) {
      markOverdefined(I);
      return;
    }
    Values.set(flatKey(I), {LatticeValue::State::Const, C});
    InstWorklist.push_back(I);
  }

  bool isExecutable(const BasicBlock *BB) const {
    return ExecutableBlocks[BB->getNumber()];
  }

  void markBlockExecutable(BasicBlock *BB) {
    if (isExecutable(BB))
      return;
    ExecutableBlocks[BB->getNumber()] = 1;
    BlockWorklist.push_back(BB);
  }

  /// Bit K of ExecutableEdges[From] stands for From's successor slot K.
  /// Both slots of a branch with both edges to one block go live together,
  /// so an edge is live when any slot naming its target is.
  uint8_t edgeBits(BasicBlock *From, BasicBlock *To) const {
    uint8_t Bits = 0;
    for (unsigned K = 0, E = From->getNumSuccessors(); K != E; ++K)
      if (From->getSuccessor(K) == To)
        Bits |= 1u << K;
    return Bits;
  }

  void markEdgeExecutable(BasicBlock *From, BasicBlock *To) {
    uint8_t &Live = ExecutableEdges[From->getNumber()];
    uint8_t Bits = edgeBits(From, To);
    if ((Live & Bits) == Bits)
      return;
    Live |= Bits;
    markBlockExecutable(To);
    // Re-evaluate phis in To: a new edge may add information.
    for (Instruction *I : *To) {
      if (!I->isPhi())
        break;
      visit(I);
    }
  }

  bool isEdgeExecutable(BasicBlock *From, BasicBlock *To) const {
    return ExecutableEdges[From->getNumber()] & edgeBits(From, To);
  }

  void solve() {
    while (!BlockWorklist.empty() || !InstWorklist.empty()) {
      while (!BlockWorklist.empty()) {
        BasicBlock *BB = BlockWorklist.back();
        BlockWorklist.pop_back();
        for (Instruction *I : *BB)
          visit(I);
      }
      while (!InstWorklist.empty()) {
        Instruction *I = InstWorklist.back();
        InstWorklist.pop_back();
        for (User *U : I->users())
          if (auto *UI = dyn_cast<Instruction>(U))
            if (isExecutable(UI->getParent()))
              visit(UI);
      }
    }
  }

  void visit(Instruction *I) {
    if (!isExecutable(I->getParent()))
      return;
    switch (I->getOpcode()) {
    case Opcode::Phi:
      visitPhi(cast<PhiNode>(I));
      return;
    case Opcode::Br:
      visitBranch(cast<BranchInst>(I));
      return;
    case Opcode::Ret:
    case Opcode::Unreachable:
    case Opcode::Store:
      return;
    case Opcode::Alloca:
    case Opcode::Load:
    case Opcode::GEP:
    case Opcode::Call:
      markOverdefined(I);
      return;
    default:
      visitFoldable(I);
      return;
    }
  }

  void visitPhi(PhiNode *P) {
    Constant *Common = nullptr;
    bool SawOverdef = false;
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
      if (!isEdgeExecutable(P->getIncomingBlock(K), P->getParent()))
        continue;
      LatticeValue LV = getLattice(P->getIncomingValue(K));
      if (LV.isUnknown())
        continue;
      if (LV.isOverdefined()) {
        SawOverdef = true;
        break;
      }
      if (Common && Common != LV.C) {
        SawOverdef = true;
        break;
      }
      Common = LV.C;
    }
    if (SawOverdef)
      markOverdefined(P);
    else if (Common)
      markConstant(P, Common);
  }

  void visitBranch(BranchInst *Br) {
    BasicBlock *BB = Br->getParent();
    if (!Br->isConditional()) {
      markEdgeExecutable(BB, Br->getSuccessor(0));
      return;
    }
    LatticeValue LV = getLattice(Br->getCondition());
    if (LV.isConst()) {
      const auto *C = cast<ConstantInt>(LV.C);
      markEdgeExecutable(BB, Br->getSuccessor(C->isTrue() ? 0 : 1));
      return;
    }
    if (LV.isOverdefined()) {
      markEdgeExecutable(BB, Br->getSuccessor(0));
      markEdgeExecutable(BB, Br->getSuccessor(1));
    }
    // Unknown: wait for more information.
  }

  void visitFoldable(Instruction *I) {
    // Gather operand lattices.
    bool AnyUnknown = false, AnyOverdef = false;
    std::vector<Constant *> &Ops = FoldOps;
    Ops.clear();
    for (Value *Op : I->operands()) {
      LatticeValue LV = getLattice(Op);
      if (LV.isUnknown())
        AnyUnknown = true;
      else if (LV.isOverdefined())
        AnyOverdef = true;
      else
        Ops.push_back(LV.C);
    }
    if (AnyUnknown && !AnyOverdef)
      return; // optimistic: wait
    if (AnyOverdef) {
      // Some identities still fold with one overdefined operand (x*0); keep
      // the solver simple and go overdefined, matching a basic SCCP.
      markOverdefined(I);
      return;
    }
    // All operands constant: fold by substituting and folding a detached
    // copy through the shared folding helpers.
    Constant *Folded = foldWithConstants(I, Ops);
    if (Folded)
      markConstant(I, Folded);
    else
      markOverdefined(I);
  }

  Constant *foldWithConstants(Instruction *I, std::vector<Constant *> &Ops) {
    if (I->isBinaryOp()) {
      if (isFloatBinaryOp(I->getOpcode())) {
        auto *A = dyn_cast<ConstantFP>(Ops[0]);
        auto *B = dyn_cast<ConstantFP>(Ops[1]);
        if (!A || !B)
          return nullptr;
        return Ctx.getFloat(
            foldFloatBinary(I->getOpcode(), A->getValue(), B->getValue()));
      }
      auto *A = dyn_cast<ConstantInt>(Ops[0]);
      auto *B = dyn_cast<ConstantInt>(Ops[1]);
      if (!A || !B)
        return nullptr;
      auto R = foldIntBinary(I->getOpcode(), A->getSExtValue(),
                             B->getSExtValue(), A->getBitWidth());
      return R ? Ctx.getInt(I->getType(), *R) : nullptr;
    }
    if (auto *Cmp = dyn_cast<ICmpInst>(I)) {
      auto *A = dyn_cast<ConstantInt>(Ops[0]);
      auto *B = dyn_cast<ConstantInt>(Ops[1]);
      if (!A || !B)
        return nullptr;
      return Ctx.getBool(foldICmp(Cmp->getPred(), A->getSExtValue(),
                                  B->getSExtValue(), A->getBitWidth()));
    }
    if (auto *Cmp = dyn_cast<FCmpInst>(I)) {
      auto *A = dyn_cast<ConstantFP>(Ops[0]);
      auto *B = dyn_cast<ConstantFP>(Ops[1]);
      if (!A || !B)
        return nullptr;
      return Ctx.getBool(
          foldFCmp(Cmp->getPred(), A->getValue(), B->getValue()));
    }
    if (I->isCast()) {
      auto *A = dyn_cast<ConstantInt>(Ops[0]);
      if (!A)
        return nullptr;
      return Ctx.getInt(I->getType(),
                        foldCast(I->getOpcode(), A->getSExtValue(),
                                 A->getBitWidth(),
                                 I->getType()->getBitWidth()));
    }
    if (isa<SelectInst>(I) && Ops.size() == 3) {
      auto *C = dyn_cast<ConstantInt>(Ops[0]);
      if (!C)
        return nullptr;
      return C->isTrue() ? Ops[1] : Ops[2];
    }
    return nullptr;
  }

  /// Applies the solution: replaces constant instructions, folds branches,
  /// deletes unreachable blocks.
  bool rewrite() {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      if (!isExecutable(BB))
        continue;
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = *It++;
        LatticeValue LV = getLattice(I);
        if (!LV.isConst() || I->getType()->isVoid())
          continue;
        I->replaceAllUsesWith(LV.C);
        BB->erase(I);
        Changed = true;
      }
    }
    // Fold branches along non-executable edges.
    for (const auto &BB : F.blocks()) {
      if (!isExecutable(BB))
        continue;
      auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      bool TrueLive = isEdgeExecutable(BB, Br->getSuccessor(0));
      bool FalseLive = isEdgeExecutable(BB, Br->getSuccessor(1));
      if (TrueLive && FalseLive)
        continue;
      BasicBlock *Live = TrueLive ? Br->getSuccessor(0) : Br->getSuccessor(1);
      BasicBlock *Dead = TrueLive ? Br->getSuccessor(1) : Br->getSuccessor(0);
      if (!TrueLive && !FalseLive)
        continue; // block is dead anyway; unreachable removal handles it
      removePhiEntriesFor(Dead, BB);
      Br->makeUnconditional(Live);
      Changed = true;
    }
    Changed |= removeUnreachableBlocks(F) > 0;
    Changed |= foldSingleEntryPhis(F) > 0;
    Changed |= removeDeadInstructions(F) > 0;
    return Changed;
  }

  Function &F;
  Context &Ctx;
  FlatMap<LatticeValue> Values;
  /// Indexed by block number.
  std::vector<uint8_t> ExecutableBlocks;
  std::vector<uint8_t> ExecutableEdges;
  std::vector<BasicBlock *> BlockWorklist;
  std::vector<Instruction *> InstWorklist;
  /// visitFoldable's operand constants, kept to reuse the allocation.
  std::vector<Constant *> FoldOps;
};

class SCCPPass : public FunctionPass {
public:
  const char *getName() const override { return "sccp"; }
  bool run(Function &F, FunctionAnalyses &) const override {
    return SCCPSolver(F).run();
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createSCCPPass() {
  return std::make_unique<SCCPPass>();
}
} // namespace llvmmd
