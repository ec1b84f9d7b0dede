//===- GVN.cpp - Global value numbering with alias analysis ----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-scoped global value numbering: a preorder walk of the
/// dominator tree with a scoped expression table (commutative operands
/// sorted by value number, comparisons canonicalized by predicate swap),
/// per-instruction simplification/constant folding, redundant-load
/// elimination and store-to-load forwarding through the alias analysis, and
/// same-block φ coalescing. This is the paper's hardest optimization to
/// validate (Figures 5/6): its effects span φ simplification, constant
/// folding, load/store simplification and commuting in the value graph.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/Dominators.h"
#include "analysis/FunctionAnalyses.h"
#include "ir/Module.h"
#include "opt/Local.h"

#include <map>
#include <optional>
#include <vector>

using namespace llvmmd;

namespace {

/// Structural key for pure expressions. Operands are value numbers, making
/// the table stable under replacement and deterministic across runs.
struct ExprKey {
  Opcode Op;
  uint8_t Pred = 0;        // icmp/fcmp predicate
  Type *Ty = nullptr;      // result type
  Type *Extra = nullptr;   // GEP element type
  std::vector<unsigned> Operands;

  bool operator<(const ExprKey &O) const {
    if (Op != O.Op)
      return Op < O.Op;
    if (Pred != O.Pred)
      return Pred < O.Pred;
    if (Ty != O.Ty)
      return Ty < O.Ty;
    if (Extra != O.Extra)
      return Extra < O.Extra;
    return Operands < O.Operands;
  }
};

class GVNPass : public FunctionPass {
public:
  const char *getName() const override { return "gvn"; }

  bool run(Function &F, FunctionAnalyses &FA) override {
    if (F.isDeclaration())
      return false;
    Changed = false;
    ValueNumbers.clear();
    NextVN = 0;
    AliasAnalysis AA(F);
    std::shared_ptr<const DominatorTree> DT = FA.domTree(F);

    // Preorder walk with scoped tables implemented as undo logs.
    processBlock(F, *DT, AA,
                 DT->getRPO().empty() ? nullptr : DT->getRPO()[0]);
    Changed |= removeDeadInstructions(F) > 0;
    return Changed;
  }

private:
  unsigned getVN(Value *V) {
    auto It = ValueNumbers.find(V);
    if (It != ValueNumbers.end())
      return It->second;
    unsigned VN = NextVN++;
    ValueNumbers[V] = VN;
    return VN;
  }

  std::optional<ExprKey> makeKey(Instruction *I) {
    ExprKey K;
    K.Op = I->getOpcode();
    K.Ty = I->getType();
    if (I->isBinaryOp()) {
      unsigned A = getVN(I->getOperand(0)), B = getVN(I->getOperand(1));
      if (isCommutativeOp(I->getOpcode()) && B < A)
        std::swap(A, B);
      K.Operands = {A, B};
      return K;
    }
    switch (I->getOpcode()) {
    case Opcode::ICmp: {
      auto *Cmp = cast<ICmpInst>(I);
      unsigned A = getVN(Cmp->getLHS()), B = getVN(Cmp->getRHS());
      ICmpPred P = Cmp->getPred();
      // Canonical orientation: smaller VN first; swap predicate to match.
      if (B < A) {
        std::swap(A, B);
        P = swapPred(P);
      }
      K.Pred = static_cast<uint8_t>(P);
      K.Operands = {A, B};
      return K;
    }
    case Opcode::FCmp: {
      auto *Cmp = cast<FCmpInst>(I);
      K.Pred = static_cast<uint8_t>(Cmp->getPred());
      K.Operands = {getVN(Cmp->getLHS()), getVN(Cmp->getRHS())};
      return K;
    }
    case Opcode::Trunc:
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Select:
      for (Value *Op : I->operands())
        K.Operands.push_back(getVN(Op));
      return K;
    case Opcode::GEP: {
      auto *G = cast<GEPInst>(I);
      K.Extra = G->getElementType();
      K.Operands = {getVN(G->getBase()), getVN(G->getIndex())};
      return K;
    }
    case Opcode::Call: {
      auto *C = cast<CallInst>(I);
      // Only calls that neither read nor write memory are pure expressions.
      if (!C->getCallee()->isReadNone())
        return std::nullopt;
      K.Extra = reinterpret_cast<Type *>(C->getCallee());
      for (Value *Op : I->operands())
        K.Operands.push_back(getVN(Op));
      return K;
    }
    default:
      return std::nullopt;
    }
  }

  void replaceAndErase(Instruction *I, Value *Repl) {
    // Keep value numbers coherent: the replacement inherits the number.
    auto It = ValueNumbers.find(I);
    if (It != ValueNumbers.end() && !ValueNumbers.count(Repl))
      ValueNumbers[Repl] = It->second;
    I->replaceAllUsesWith(Repl);
    I->getParent()->erase(I);
    Changed = true;
  }

  /// Folds a load from a constant-qualified global to its initializer.
  /// This mirrors LLVM's "folding of global variables", which the paper
  /// names as a false-alarm source: the validator only matches it when its
  /// GlobalFold extension rule set is enabled.
  Value *foldConstantGlobalLoad(LoadInst *Ld) {
    const auto *GV = dyn_cast<GlobalVariable>(Ld->getPointer());
    if (!GV || !GV->isConstantGlobal() || !GV->hasInitializer())
      return nullptr;
    if (GV->getValueType() != Ld->getType())
      return nullptr;
    return GV->getInitializer();
  }

  /// Searches for an available value for load (Ptr, Ty) starting just above
  /// \p From in its block and walking unique-predecessor chains upward.
  /// Knows that memset fills a region with a byte (libc knowledge, another
  /// of the paper's false-alarm sources).
  Value *findAvailableLoadValue(Instruction *From, Value *Ptr, Type *Ty,
                                const AliasAnalysis &AA) {
    unsigned Budget = 256;
    BasicBlock *BB = From->getParent();
    // Position of From within BB.
    std::vector<Instruction *> Insts(BB->begin(), BB->end());
    int Start = -1;
    for (int I = static_cast<int>(Insts.size()) - 1; I >= 0; --I)
      if (Insts[I] == From) {
        Start = I - 1;
        break;
      }
    unsigned Size = Ty->getStoreSize();
    while (true) {
      for (int I = Start; I >= 0 && Budget; --I, --Budget) {
        Instruction *Cand = Insts[I];
        if (auto *St = dyn_cast<StoreInst>(Cand)) {
          AliasResult AR = AA.alias(St->getPointer(),
                                    St->getStoredValue()->getType()->getStoreSize(),
                                    Ptr, Size);
          if (AR == AliasResult::MustAlias &&
              St->getStoredValue()->getType() == Ty)
            return St->getStoredValue();
          if (AR != AliasResult::NoAlias)
            return nullptr; // clobbered by a may-aliasing store
          continue;
        }
        if (auto *Ld = dyn_cast<LoadInst>(Cand)) {
          if (Ld->getType() == Ty &&
              AA.alias(Ld->getPointer(), Size, Ptr, Size) ==
                  AliasResult::MustAlias)
            return Ld;
          continue;
        }
        if (auto *Call = dyn_cast<CallInst>(Cand)) {
          if (Call->getCallee()->getName() == "memset" &&
              Call->getNumArgs() == 3) {
            const auto *Len = dyn_cast<ConstantInt>(Call->getArg(2));
            if (!Len)
              return nullptr;
            int64_t LenV = std::max<int64_t>(0, Len->getSExtValue());
            AliasResult AR = AA.alias(Call->getArg(0),
                                      static_cast<unsigned>(LenV), Ptr, Size);
            if (AR == AliasResult::NoAlias)
              continue; // the fill cannot touch this load
            // A byte load wholly inside the filled range reads the fill
            // value (the paper's memset rule, with l2 < l1).
            const auto *Fill = dyn_cast<ConstantInt>(Call->getArg(1));
            auto DstD = AliasAnalysis::decompose(Call->getArg(0));
            auto PtrD = AliasAnalysis::decompose(Ptr);
            if (Fill && Size == 1 && Ty->isInteger() &&
                DstD.Base == PtrD.Base && DstD.Offset && PtrD.Offset &&
                *PtrD.Offset >= *DstD.Offset &&
                *PtrD.Offset + static_cast<int64_t>(Size) <=
                    *DstD.Offset + LenV)
              return From->getFunction()->getParent()->getContext().getInt(
                  Ty, signExtend(Fill->getSExtValue(), 8));
            return nullptr;
          }
          if (Call->getCallee()->mayWriteMemory())
            return nullptr;
          continue;
        }
      }
      if (!Budget)
        return nullptr;
      std::vector<BasicBlock *> Preds = BB->predecessors();
      if (Preds.size() != 1)
        return nullptr;
      BB = Preds.front();
      Insts.assign(BB->begin(), BB->end());
      Start = static_cast<int>(Insts.size()) - 1;
    }
  }

  void processBlock(Function &F, const DominatorTree &DT,
                    const AliasAnalysis &AA, BasicBlock *Root) {
    if (!Root)
      return;
    struct Frame {
      BasicBlock *BB;
      size_t NextChild = 0;
      size_t UndoMark = 0;
    };
    std::vector<Frame> Stack;
    Stack.push_back({Root, 0, UndoLog.size()});
    visitBlock(F, AA, Root);
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const auto &Kids = DT.getChildren(Top.BB);
      if (Top.NextChild < Kids.size()) {
        BasicBlock *Child = Kids[Top.NextChild++];
        Stack.push_back({Child, 0, UndoLog.size()});
        visitBlock(F, AA, Child);
        continue;
      }
      // Unwind scope.
      while (UndoLog.size() > Top.UndoMark) {
        auto &[Key, Prev] = UndoLog.back();
        if (Prev)
          Table[Key] = Prev;
        else
          Table.erase(Key);
        UndoLog.pop_back();
      }
      Stack.pop_back();
    }
  }

  void insertScoped(const ExprKey &K, Value *V) {
    auto It = Table.find(K);
    UndoLog.emplace_back(K, It == Table.end() ? nullptr : It->second);
    Table[K] = V;
  }

  void visitBlock(Function &F, const AliasAnalysis &AA, BasicBlock *BB) {
    Context &Ctx = F.getParent()->getContext();

    // φ coalescing: two φs over identical (block, VN) incoming sets merge.
    std::vector<PhiNode *> Phis = BB->phis();
    std::map<std::vector<std::pair<BasicBlock *, unsigned>>, PhiNode *>
        PhiTable;
    for (PhiNode *P : Phis) {
      if (Value *Simpl = simplifyInstruction(P, Ctx)) {
        replaceAndErase(P, Simpl);
        continue;
      }
      std::vector<std::pair<BasicBlock *, unsigned>> Key;
      for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K)
        Key.emplace_back(P->getIncomingBlock(K),
                         getVN(P->getIncomingValue(K)));
      std::sort(Key.begin(), Key.end());
      auto [It, Inserted] = PhiTable.try_emplace(Key, P);
      if (!Inserted && It->second->getType() == P->getType())
        replaceAndErase(P, It->second);
    }

    std::vector<Instruction *> Insts(BB->getFirstNonPhi(), BB->end());
    for (Instruction *I : Insts) {
      if (Value *Simpl = simplifyInstruction(I, Ctx)) {
        replaceAndErase(I, Simpl);
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        if (Value *Folded = foldConstantGlobalLoad(Ld)) {
          replaceAndErase(Ld, Folded);
          continue;
        }
        if (Value *Avail =
                findAvailableLoadValue(Ld, Ld->getPointer(), Ld->getType(), AA)) {
          replaceAndErase(Ld, Avail);
        }
        continue;
      }
      auto Key = makeKey(I);
      if (!Key)
        continue;
      auto It = Table.find(*Key);
      if (It != Table.end()) {
        replaceAndErase(I, It->second);
        continue;
      }
      insertScoped(*Key, I);
    }
  }

  bool Changed = false;
  std::map<Value *, unsigned> ValueNumbers;
  unsigned NextVN = 0;
  std::map<ExprKey, Value *> Table;
  std::vector<std::pair<ExprKey, Value *>> UndoLog;
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createGVNPass() {
  return std::make_unique<GVNPass>();
}
} // namespace llvmmd
