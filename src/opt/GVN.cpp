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
#include "support/FlatMap.h"

#include <algorithm>
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

  uint64_t hash() const {
    uint64_t H = hashCombine(static_cast<uint64_t>(Op), Pred);
    H = hashCombine(H, flatKey(Ty));
    H = hashCombine(H, flatKey(Extra));
    for (unsigned VN : Operands)
      H = hashCombine(H, VN);
    return H;
  }
};

/// The scoped expression table. Each distinct key gets one entry for the
/// whole run, reached through a FlatMap from its hash (entries sharing a
/// hash chain through Next) and holding its operands in one pool. Leaving
/// a scope restores the values it overwrote; a null value is an absent
/// key.
class ExprTable {
public:
  Value *lookup(const ExprKey &K) const {
    int E = findEntry(K, K.hash());
    return E < 0 ? nullptr : Entries[E].V;
  }

  /// Maps \p K to \p V until the scope that is open now is left.
  void insertScoped(const ExprKey &K, Value *V) {
    uint64_t H = K.hash();
    int E = findEntry(K, H);
    if (E < 0) {
      const uint32_t *Head = Heads.find(H | 1);
      Entries.push_back({K.Op, K.Pred, K.Ty, K.Extra,
                         static_cast<uint32_t>(OperandPool.size()),
                         static_cast<uint32_t>(K.Operands.size()), nullptr,
                         Head ? *Head : 0});
      OperandPool.insert(OperandPool.end(), K.Operands.begin(),
                         K.Operands.end());
      E = static_cast<int>(Entries.size() - 1);
      Heads.set(H | 1, static_cast<uint32_t>(E + 1));
    }
    UndoLog.emplace_back(E, Entries[E].V);
    Entries[E].V = V;
  }

  /// The scope mark to pass to leaveScope.
  size_t enterScope() const { return UndoLog.size(); }

  void leaveScope(size_t Mark) {
    while (UndoLog.size() > Mark) {
      Entries[UndoLog.back().first].V = UndoLog.back().second;
      UndoLog.pop_back();
    }
  }

private:
  struct Entry {
    Opcode Op;
    uint8_t Pred;
    Type *Ty;
    Type *Extra;
    uint32_t OpBegin, OpCount;
    Value *V;
    /// One past the index of the next entry with the same hash, or 0.
    uint32_t Next;
  };

  int findEntry(const ExprKey &K, uint64_t H) const {
    const uint32_t *Head = Heads.find(H | 1);
    for (uint32_t I = Head ? *Head : 0; I; I = Entries[I - 1].Next) {
      const Entry &E = Entries[I - 1];
      if (E.Op == K.Op && E.Pred == K.Pred && E.Ty == K.Ty &&
          E.Extra == K.Extra && E.OpCount == K.Operands.size() &&
          std::equal(K.Operands.begin(), K.Operands.end(),
                     OperandPool.begin() + E.OpBegin))
        return static_cast<int>(I - 1);
    }
    return -1;
  }

  std::vector<Entry> Entries;
  std::vector<unsigned> OperandPool;
  /// Keyed by hash | 1 (FlatMap keys are nonzero).
  FlatMap<uint32_t> Heads;
  std::vector<std::pair<int, Value *>> UndoLog;
};

/// One GVN run over one function. Its tables live only for the run, so
/// the pass object itself stays stateless.
class GVN {
public:
  bool run(Function &F, FunctionAnalyses &FA) {
    ValueNumbers.reserve(F.getNumArgs() + F.getInstructionCount());
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
    if (const unsigned *VN = ValueNumbers.find(flatKey(V)))
      return *VN;
    ValueNumbers.set(flatKey(V), NextVN);
    return NextVN++;
  }

  /// Fills \p K with \p I's expression key; false if \p I is not a pure
  /// expression.
  bool makeKey(Instruction *I, ExprKey &K) {
    K.Op = I->getOpcode();
    K.Pred = 0;
    K.Extra = nullptr;
    K.Operands.clear();
    K.Ty = I->getType();
    if (I->isBinaryOp()) {
      unsigned A = getVN(I->getOperand(0)), B = getVN(I->getOperand(1));
      if (isCommutativeOp(I->getOpcode()) && B < A)
        std::swap(A, B);
      K.Operands.push_back(A);
      K.Operands.push_back(B);
      return true;
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
      K.Operands.push_back(A);
      K.Operands.push_back(B);
      return true;
    }
    case Opcode::FCmp: {
      auto *Cmp = cast<FCmpInst>(I);
      K.Pred = static_cast<uint8_t>(Cmp->getPred());
      K.Operands.push_back(getVN(Cmp->getLHS()));
      K.Operands.push_back(getVN(Cmp->getRHS()));
      return true;
    }
    case Opcode::Trunc:
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Select:
      for (Value *Op : I->operands())
        K.Operands.push_back(getVN(Op));
      return true;
    case Opcode::GEP: {
      auto *G = cast<GEPInst>(I);
      K.Extra = G->getElementType();
      K.Operands.push_back(getVN(G->getBase()));
      K.Operands.push_back(getVN(G->getIndex()));
      return true;
    }
    case Opcode::Call: {
      auto *C = cast<CallInst>(I);
      // Only calls that neither read nor write memory are pure expressions.
      if (!C->getCallee()->isReadNone())
        return false;
      K.Extra = reinterpret_cast<Type *>(C->getCallee());
      for (Value *Op : I->operands())
        K.Operands.push_back(getVN(Op));
      return true;
    }
    default:
      return false;
    }
  }

  void replaceAndErase(Instruction *I, Value *Repl) {
    // Keep value numbers coherent: the replacement inherits the number.
    if (const unsigned *VN = ValueNumbers.find(flatKey(I))) {
      unsigned N = *VN;
      ValueNumbers.insert(flatKey(Repl), N);
    }
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

  /// The one predecessor of \p BB, or null if it has none or several
  /// (unreachable predecessors count, as in BasicBlock::predecessors). GVN
  /// leaves the CFG alone, so the table is built once per run, on the
  /// first query.
  BasicBlock *uniquePredecessor(BasicBlock *BB) {
    Function &F = *BB->getParent();
    if (UniquePreds.empty()) {
      std::vector<unsigned> NumPreds(F.getMaxBlockNumber(), 0);
      UniquePreds.assign(F.getMaxBlockNumber(), nullptr);
      for (BasicBlock *Pred : F.blocks())
        for (unsigned K = 0, E = Pred->getNumSuccessors(); K != E; ++K) {
          BasicBlock *Succ = Pred->getSuccessor(K);
          if (K == 1 && Succ == Pred->getSuccessor(0))
            continue;
          ++NumPreds[Succ->getNumber()];
          UniquePreds[Succ->getNumber()] = Pred;
        }
      for (unsigned N = 0, E = NumPreds.size(); N != E; ++N)
        if (NumPreds[N] != 1)
          UniquePreds[N] = nullptr;
    }
    return UniquePreds[BB->getNumber()];
  }

  /// Searches for an available value for load (Ptr, Ty) starting just above
  /// \p From (at \p Pos in its block) and walking unique-predecessor chains
  /// upward. Knows that memset fills a region with a byte (libc knowledge,
  /// another of the paper's false-alarm sources).
  Value *findAvailableLoadValue(Instruction *From, BasicBlock::iterator Pos,
                                Value *Ptr, Type *Ty,
                                const AliasAnalysis &AA) {
    unsigned Budget = 256;
    BasicBlock *BB = From->getParent();
    BasicBlock::iterator It = Pos;
    unsigned Size = Ty->getStoreSize();
    while (true) {
      for (; It != BB->begin() && Budget; --Budget) {
        Instruction *Cand = *--It;
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
      BB = uniquePredecessor(BB);
      if (!BB)
        return nullptr;
      It = BB->end();
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
    Stack.push_back({Root, 0, Table.enterScope()});
    visitBlock(F, AA, Root);
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const auto &Kids = DT.getChildren(Top.BB);
      if (Top.NextChild < Kids.size()) {
        BasicBlock *Child = Kids[Top.NextChild++];
        Stack.push_back({Child, 0, Table.enterScope()});
        visitBlock(F, AA, Child);
        continue;
      }
      Table.leaveScope(Top.UndoMark);
      Stack.pop_back();
    }
  }

  void visitBlock(Function &F, const AliasAnalysis &AA, BasicBlock *BB) {
    Context &Ctx = F.getParent()->getContext();

    // φ coalescing: two φs over identical (block, VN) incoming sets merge.
    // A φ's key is its sorted (block number, VN) pairs; the first φ with a
    // key in this block stays in the table. Each iteration steps past the
    // instruction it may erase.
    auto It = BB->begin();
    for (; It != BB->end() && (*It)->isPhi();) {
      auto *P = cast<PhiNode>(*It++);
      if (Value *Simpl = simplifyInstruction(P, Ctx)) {
        replaceAndErase(P, Simpl);
        continue;
      }
      uint32_t Begin = static_cast<uint32_t>(PhiKeys.size());
      for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K)
        PhiKeys.push_back(
            uint64_t(P->getIncomingBlock(K)->getNumber()) << 32 |
            getVN(P->getIncomingValue(K)));
      std::sort(PhiKeys.begin() + Begin, PhiKeys.end());
      uint64_t H = BB->getNumber();
      for (size_t K = Begin, E = PhiKeys.size(); K != E; ++K)
        H = hashCombine(H, PhiKeys[K]);
      const PhiEntry *Same = findPhi(BB->getNumber(), Begin, H);
      if (!Same) {
        const uint32_t *Head = PhiHeads.find(H | 1);
        PhiTable.push_back({BB->getNumber(), Begin,
                            static_cast<uint32_t>(PhiKeys.size()), P,
                            Head ? *Head : 0});
        PhiHeads.set(H | 1, static_cast<uint32_t>(PhiTable.size()));
        continue;
      }
      PhiKeys.resize(Begin);
      if (Same->P->getType() == P->getType())
        replaceAndErase(P, Same->P);
    }

    while (It != BB->end()) {
      BasicBlock::iterator Pos = It;
      Instruction *I = *It++;
      if (Value *Simpl = simplifyInstruction(I, Ctx)) {
        replaceAndErase(I, Simpl);
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        if (Value *Folded = foldConstantGlobalLoad(Ld)) {
          replaceAndErase(Ld, Folded);
          continue;
        }
        if (Value *Avail = findAvailableLoadValue(
                Ld, Pos, Ld->getPointer(), Ld->getType(), AA)) {
          replaceAndErase(Ld, Avail);
        }
        continue;
      }
      if (!makeKey(I, Key))
        continue;
      if (Value *Avail = Table.lookup(Key)) {
        replaceAndErase(I, Avail);
        continue;
      }
      Table.insertScoped(Key, I);
    }
  }

  /// A φ already in visitBlock's table: a φ of block number Block whose
  /// key is PhiKeys[Begin, End).
  struct PhiEntry {
    unsigned Block;
    uint32_t Begin, End;
    PhiNode *P;
    /// One past the index of the next entry with the same hash, or 0.
    uint32_t Next;
  };

  /// The entry of block \p Block whose key equals PhiKeys[Begin, end) and
  /// hashes to \p H, or null. Each block is visited once per run, so an
  /// entry of another block (whose φ may be gone) is never returned.
  const PhiEntry *findPhi(unsigned Block, uint32_t Begin, uint64_t H) const {
    const uint32_t *Head = PhiHeads.find(H | 1);
    for (uint32_t I = Head ? *Head : 0; I; I = PhiTable[I - 1].Next) {
      const PhiEntry &E = PhiTable[I - 1];
      if (E.Block == Block && E.End - E.Begin == PhiKeys.size() - Begin &&
          std::equal(PhiKeys.begin() + E.Begin, PhiKeys.begin() + E.End,
                     PhiKeys.begin() + Begin))
        return &E;
    }
    return nullptr;
  }

  bool Changed = false;
  FlatMap<unsigned> ValueNumbers;
  unsigned NextVN = 0;
  ExprTable Table;
  /// Unique predecessor of each block by number; see uniquePredecessor.
  std::vector<BasicBlock *> UniquePreds;
  /// Scratch reused across instructions and blocks.
  ExprKey Key;
  /// The φ table of the run: keys pooled in PhiKeys, entries reached
  /// from a FlatMap of key hashes (keyed by hash | 1) as in ExprTable.
  std::vector<uint64_t> PhiKeys;
  std::vector<PhiEntry> PhiTable;
  FlatMap<uint32_t> PhiHeads;
};

class GVNPass : public FunctionPass {
public:
  const char *getName() const override { return "gvn"; }

  bool run(Function &F, FunctionAnalyses &FA) const override {
    if (F.isDeclaration())
      return false;
    return GVN().run(F, FA);
  }
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createGVNPass() {
  return std::make_unique<GVNPass>();
}
} // namespace llvmmd
