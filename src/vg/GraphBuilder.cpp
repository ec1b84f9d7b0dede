//===- GraphBuilder.cpp - Function -> shared value graph ---------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "vg/GraphBuilder.h"

#include "gated/GatedSSA.h"
#include "ir/Module.h"
#include "support/FlatMap.h"

using namespace llvmmd;

namespace {

class Builder {
public:
  Builder(ValueGraph &G, const Function &F)
      : G(G), F(F), Ctx(F.getParent()->getContext()), GA(F) {}

  BuildResult run() {
    BuildResult R;
    if (!GA.isSupported()) {
      R.Reason = GA.getUnsupportedReason();
      return R;
    }

    ValueMap.reserve(F.getInstructionCount());
    MemOut.assign(F.getMaxBlockNumber(), InvalidNode);
    const DominatorTree &DT = GA.getDomTree();
    for (const BasicBlock *BB : DT.getRPO()) {
      if (!processBlock(BB)) {
        R.Reason = Failure.empty() ? "unsupported construct" : Failure;
        return R;
      }
    }
    patchMus();
    if (!GA.isSupported() || !Failure.empty()) {
      R.Reason =
          !Failure.empty() ? Failure : GA.getUnsupportedReason();
      return R;
    }
    if (RetNode == InvalidNode) {
      R.Reason = "no return found";
      return R;
    }
    R.Supported = true;
    R.Ret = RetNode;
    return R;
  }

private:
  //===------------------------------------------------------------------===//
  // Leaves and operands
  //===------------------------------------------------------------------===//

  NodeId evalConstant(const Value *V) {
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return G.getConstInt(CI->getType(), CI->getSExtValue());
    if (const auto *CF = dyn_cast<ConstantFP>(V))
      return G.getConstFloat(CF->getType(), CF->getValue());
    if (isa<ConstantPointerNull>(V))
      return G.getNull(V->getType());
    if (isa<UndefValue>(V))
      return G.getUndef(V->getType());
    if (const auto *GV = dyn_cast<GlobalVariable>(V))
      return G.getGlobal(GV->getName(), GV->isConstantGlobal(), GV->getType());
    fail("unsupported constant operand");
    return InvalidNode;
  }

  /// Evaluates a use of \p V from \p UserBB, inserting η nodes when the
  /// definition's loop does not contain the user.
  NodeId evalUse(const Value *V, const BasicBlock *UserBB) {
    if (const auto *A = dyn_cast<Argument>(V))
      return G.getParam(A->getIndex(), A->getType());
    if (isa<Constant>(V))
      return evalConstant(V);
    const auto *I = dyn_cast<Instruction>(V);
    if (!I) {
      fail("unsupported value kind");
      return InvalidNode;
    }
    const NodeId *Def = ValueMap.find(flatKey(I));
    if (!Def) {
      fail("use of unevaluated value (non-SSA input?)");
      return InvalidNode;
    }
    NodeId Id = *Def;
    const LoopInfo &LI = GA.getLoopInfo();
    for (const Loop *L = LI.getLoopFor(I->getParent());
         L && !L->contains(UserBB); L = L->getParent())
      Id = wrapEta(*L, Id, I->getType());
    return Id;
  }

  /// η-wraps \p Id for leaving loop \p L through its primary exit edge.
  NodeId wrapEta(const Loop &L, NodeId Id, Type *Ty) {
    auto [Exiting, Exit] = GA.getPrimaryExitEdge(L);
    if (!Exiting) {
      // A loop with no exit: anything escaping it is unreachable anyway.
      return Id;
    }
    const GateExpr *Stay = GA.getStayCondition(L, Exiting, Exit);
    NodeId Cond = gateToNode(Stay, Exiting);
    return G.getEta(Ty, Cond, Id);
  }

  /// η-wraps a *memory* state crossing out of loops: from the definition
  /// context \p DefBB to the user context \p UserBB.
  NodeId wrapMemAcrossLoops(NodeId Mem, const BasicBlock *DefBB,
                            const BasicBlock *UserBB) {
    const LoopInfo &LI = GA.getLoopInfo();
    for (const Loop *L = LI.getLoopFor(DefBB); L && !L->contains(UserBB);
         L = L->getParent())
      Mem = wrapEta(*L, Mem, nullptr);
    return Mem;
  }

  NodeId gateToNode(const GateExpr *E, const BasicBlock *ContextBB) {
    Type *BoolTy = Ctx.getInt1Ty();
    switch (E->K) {
    case GateExpr::Kind::True:
      return G.getConstBool(BoolTy, true);
    case GateExpr::Kind::False:
      return G.getConstBool(BoolTy, false);
    case GateExpr::Kind::Cond:
      return evalUse(E->Cond, ContextBB);
    case GateExpr::Kind::Not: {
      NodeId A = gateToNode(E->A, ContextBB);
      return G.getOp(Opcode::Xor, BoolTy, {A, G.getConstBool(BoolTy, true)});
    }
    case GateExpr::Kind::And: {
      NodeId A = gateToNode(E->A, ContextBB);
      NodeId B = gateToNode(E->B, ContextBB);
      return G.getOp(Opcode::And, BoolTy, {A, B});
    }
    case GateExpr::Kind::Or: {
      NodeId A = gateToNode(E->A, ContextBB);
      NodeId B = gateToNode(E->B, ContextBB);
      return G.getOp(Opcode::Or, BoolTy, {A, B});
    }
    }
    return InvalidNode;
  }

  //===------------------------------------------------------------------===//
  // Memory state per block
  //===------------------------------------------------------------------===//

  bool loopWritesMemory(const Loop &L) const {
    for (const BasicBlock *BB : L.getBlocks())
      for (const Instruction *I : *BB) {
        if (isa<StoreInst>(I) || isa<AllocaInst>(I))
          return true;
        if (const auto *Call = dyn_cast<CallInst>(I))
          if (Call->getCallee()->mayWriteMemory())
            return true;
      }
    return false;
  }

  NodeId computeMemIn(const BasicBlock *BB) {
    const LoopInfo &LI = GA.getLoopInfo();
    if (BB == F.getEntryBlock())
      return G.getInitialMem();

    const Loop *L = LI.getLoopFor(BB);
    bool IsHeader = L && L->getHeader() == BB;

    if (IsHeader && loopWritesMemory(*L)) {
      // μ over memory; iteration side patched later.
      NodeId Mu = G.makeMu(nullptr);
      NodeId Init = mergeEdges(BB, /*InitOnly=*/true);
      PendingMemMus.push_back({BB, Mu, Init});
      return Mu;
    }
    // Ordinary join (or effect-free loop header: latch memory equals the
    // header's own input, so merging the entering edges is exact).
    return mergeEdges(BB, IsHeader);
  }

  /// Merges predecessor memory along incoming forward edges (optionally
  /// only loop-entering edges) into a single state, gating with γ.
  NodeId mergeEdges(const BasicBlock *BB, bool InitOnly) {
    const DominatorTree &DT = GA.getDomTree();
    const LoopInfo &LI = GA.getLoopInfo();
    const Loop *L = LI.getLoopFor(BB);
    Incoming.clear();
    for (const BasicBlock *P : DT.predecessors(BB)) {
      if (InitOnly && L && L->contains(P))
        continue; // skip latches
      if (MemOut[P->getNumber()] == InvalidNode)
        continue; // back edge (patched later) — cannot happen for non-headers
      NodeId M = wrapMemAcrossLoops(MemOut[P->getNumber()], P, BB);
      Incoming.emplace_back(P, M);
    }
    if (Incoming.empty()) {
      fail("block with no evaluated predecessors");
      return InvalidNode;
    }
    if (Incoming.size() == 1)
      return Incoming.front().second;
    bool AllSame = true;
    for (auto &[P, M] : Incoming)
      AllSame &= (G.find(M) == G.find(Incoming.front().second));
    if (AllSame)
      return Incoming.front().second;
    Branches.clear();
    for (auto &[P, M] : Incoming) {
      NodeId C = gateToNode(GA.getEdgeGate(P, BB), BB);
      Branches.emplace_back(C, M);
    }
    return G.getGamma(nullptr, Branches);
  }

  //===------------------------------------------------------------------===//
  // Instruction evaluation
  //===------------------------------------------------------------------===//

  bool processBlock(const BasicBlock *BB) {
    NodeId Mem = computeMemIn(BB);
    if (!Failure.empty())
      return false;

    // φ nodes first (they do not touch memory).
    const LoopInfo &LI = GA.getLoopInfo();
    const Loop *L = LI.getLoopFor(BB);
    bool IsHeader = L && L->getHeader() == BB;
    for (const PhiNode *P : BB->phis()) {
      NodeId Id = IsHeader ? buildLoopPhi(P, *L) : buildGatedPhi(P);
      if (Id == InvalidNode)
        return false;
      define(P, Id);
    }

    for (const Instruction *I : *BB) {
      if (I->isPhi())
        continue;
      if (!evalInstruction(I, BB, Mem))
        return false;
    }
    MemOut[BB->getNumber()] = Mem;
    return true;
  }

  NodeId buildGatedPhi(const PhiNode *P) {
    Branches.clear();
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
      const BasicBlock *Pred = P->getIncomingBlock(K);
      if (!GA.getDomTree().isReachable(Pred))
        continue;
      NodeId C = gateToNode(GA.getEdgeGate(Pred, P->getParent()),
                            P->getParent());
      NodeId V = evalUse(P->getIncomingValue(K), P->getParent());
      if (!GA.isSupported()) {
        fail(GA.getUnsupportedReason());
        return InvalidNode;
      }
      if (V == InvalidNode || C == InvalidNode)
        return InvalidNode;
      Branches.emplace_back(C, V);
    }
    if (Branches.empty()) {
      fail("phi with no reachable incoming edges");
      return InvalidNode;
    }
    return G.getGamma(P->getType(), Branches);
  }

  NodeId buildLoopPhi(const PhiNode *P, const Loop &L) {
    // Initial side: entering edges (evaluable now, preds already processed).
    std::vector<GammaBranch> &InitBranches = Branches;
    InitBranches.clear();
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
      const BasicBlock *Pred = P->getIncomingBlock(K);
      if (!GA.getDomTree().isReachable(Pred) || L.contains(Pred))
        continue;
      NodeId V = evalUse(P->getIncomingValue(K), P->getParent());
      if (V == InvalidNode)
        return InvalidNode;
      NodeId C = gateToNode(GA.getEdgeGate(Pred, P->getParent()),
                            P->getParent());
      InitBranches.emplace_back(C, V);
    }
    if (InitBranches.empty()) {
      fail("loop header phi without initial value");
      return InvalidNode;
    }
    NodeId Init = InitBranches.size() == 1
                      ? InitBranches.front().second
                      : G.getGamma(P->getType(), InitBranches);
    NodeId Mu = G.makeMu(P->getType());
    PendingValueMus.push_back({P, Mu, Init});
    return Mu;
  }

  bool evalInstruction(const Instruction *I, const BasicBlock *BB,
                       NodeId &Mem) {
    switch (I->getOpcode()) {
    case Opcode::ICmp: {
      const auto *C = cast<ICmpInst>(I);
      NodeId L = evalUse(C->getLHS(), BB), R = evalUse(C->getRHS(), BB);
      if (L == InvalidNode || R == InvalidNode)
        return false;
      define(I, G.getOp(Opcode::ICmp, I->getType(), {L, R},
                        static_cast<uint8_t>(C->getPred())));
      return true;
    }
    case Opcode::FCmp: {
      const auto *C = cast<FCmpInst>(I);
      NodeId L = evalUse(C->getLHS(), BB), R = evalUse(C->getRHS(), BB);
      if (L == InvalidNode || R == InvalidNode)
        return false;
      define(I, G.getOp(Opcode::FCmp, I->getType(), {L, R},
                        static_cast<uint8_t>(C->getPred())));
      return true;
    }
    case Opcode::Trunc:
    case Opcode::ZExt:
    case Opcode::SExt: {
      NodeId S = evalUse(I->getOperand(0), BB);
      if (S == InvalidNode)
        return false;
      define(I, G.getOp(I->getOpcode(), I->getType(), {S}));
      return true;
    }
    case Opcode::Select: {
      const auto *S = cast<SelectInst>(I);
      NodeId C = evalUse(S->getCondition(), BB);
      NodeId T = evalUse(S->getTrueValue(), BB);
      NodeId E = evalUse(S->getFalseValue(), BB);
      if (C == InvalidNode || T == InvalidNode || E == InvalidNode)
        return false;
      Type *BoolTy = Ctx.getInt1Ty();
      NodeId NotC =
          G.getOp(Opcode::Xor, BoolTy, {C, G.getConstBool(BoolTy, true)});
      define(I, G.getGamma(I->getType(), {{C, T}, {NotC, E}}));
      return true;
    }
    case Opcode::Alloca: {
      const auto *A = cast<AllocaInst>(I);
      NodeId Count = evalUse(A->getCount(), BB);
      if (Count == InvalidNode)
        return false;
      NodeId Alloc =
          G.getAlloc(Count, Mem, A->getAllocatedType()->getStoreSize());
      define(I, Alloc);
      Mem = G.getAllocMem(Alloc);
      return true;
    }
    case Opcode::Load: {
      const auto *Ld = cast<LoadInst>(I);
      NodeId P = evalUse(Ld->getPointer(), BB);
      if (P == InvalidNode)
        return false;
      define(I, G.getLoad(I->getType(), P, Mem));
      return true;
    }
    case Opcode::Store: {
      const auto *St = cast<StoreInst>(I);
      NodeId V = evalUse(St->getStoredValue(), BB);
      NodeId P = evalUse(St->getPointer(), BB);
      if (V == InvalidNode || P == InvalidNode)
        return false;
      Mem = G.getStore(V, P, Mem);
      return true;
    }
    case Opcode::GEP: {
      const auto *GEP = cast<GEPInst>(I);
      NodeId B = evalUse(GEP->getBase(), BB);
      NodeId Idx = evalUse(GEP->getIndex(), BB);
      if (B == InvalidNode || Idx == InvalidNode)
        return false;
      define(I, G.getOp(Opcode::GEP, I->getType(), {B, Idx}, 0,
                        GEP->getElementType()->getStoreSize()));
      return true;
    }
    case Opcode::Call: {
      const auto *Call = cast<CallInst>(I);
      const Function *Callee = Call->getCallee();
      std::vector<NodeId> &Ops = CallOps;
      Ops.clear();
      for (unsigned A = 0, E = Call->getNumArgs(); A != E; ++A) {
        NodeId V = evalUse(Call->getArg(A), BB);
        if (V == InvalidNode)
          return false;
        Ops.push_back(V);
      }
      // Monadic calls: readnone calls are pure functions of their
      // arguments; readonly calls additionally take the memory state; and
      // writing calls also produce a new memory state.
      if (!Callee->isReadNone())
        Ops.push_back(Mem);
      NodeId C = G.getCall(Callee->getName(), Callee->getMemoryEffect(),
                           I->getType(), Ops);
      if (!I->getType()->isVoid())
        define(I, C);
      if (Callee->mayWriteMemory())
        Mem = G.getCallMem(C);
      return true;
    }
    case Opcode::Br:
    case Opcode::Unreachable:
      return true;
    case Opcode::Ret: {
      const auto *R = cast<ReturnInst>(I);
      NodeId V = InvalidNode;
      if (R->hasReturnValue()) {
        V = evalUse(R->getReturnValue(), BB);
        if (V == InvalidNode)
          return false;
      }
      RetNode = G.getRet(V, Mem);
      return true;
    }
    default: {
      assert(I->isBinaryOp() && "unhandled opcode in graph builder");
      NodeId L = evalUse(I->getOperand(0), BB);
      NodeId R = evalUse(I->getOperand(1), BB);
      if (L == InvalidNode || R == InvalidNode)
        return false;
      define(I, G.getOp(I->getOpcode(), I->getType(), {L, R}));
      return true;
    }
    }
  }

  //===------------------------------------------------------------------===//
  // μ patching (after the whole body is evaluated)
  //===------------------------------------------------------------------===//

  void patchMus() {
    for (auto &[P, Mu, Init] : PendingValueMus) {
      const Loop *L = GA.getLoopInfo().getLoopFor(P->getParent());
      assert(L && "pending mu outside loop");
      std::vector<GammaBranch> &LatchBranches = Branches;
      LatchBranches.clear();
      for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K) {
        const BasicBlock *Pred = P->getIncomingBlock(K);
        if (!GA.getDomTree().isReachable(Pred) || !L->contains(Pred))
          continue;
        NodeId V = evalUse(P->getIncomingValue(K), P->getParent());
        if (V == InvalidNode)
          return;
        NodeId C = gateToNode(GA.getLatchGate(Pred, P->getParent()),
                              P->getParent());
        LatchBranches.emplace_back(C, V);
      }
      if (LatchBranches.empty()) {
        fail("loop header phi without latch value");
        return;
      }
      NodeId Next = LatchBranches.size() == 1
                        ? LatchBranches.front().second
                        : G.getGamma(P->getType(), LatchBranches);
      G.setMuOperands(Mu, Init, Next);
    }
    for (auto &[Header, Mu, Init] : PendingMemMus) {
      const Loop *L = GA.getLoopInfo().getLoopFor(Header);
      assert(L && L->getHeader() == Header && "bad pending memory mu");
      std::vector<GammaBranch> &LatchBranches = Branches;
      LatchBranches.clear();
      for (const BasicBlock *Latch : L->getLatches()) {
        NodeId M = MemOut[Latch->getNumber()];
        if (M == InvalidNode)
          continue;
        NodeId C = gateToNode(GA.getLatchGate(Latch, Header), Header);
        LatchBranches.emplace_back(C, M);
      }
      if (LatchBranches.empty()) {
        fail("memory mu without latch state");
        return;
      }
      NodeId Next = LatchBranches.size() == 1
                        ? LatchBranches.front().second
                        : G.getGamma(nullptr, LatchBranches);
      G.setMuOperands(Mu, Init, Next);
    }
  }

  void define(const Instruction *I, NodeId Id) {
    ValueMap.set(flatKey(I), Id);
  }

  void fail(const std::string &Why) {
    if (Failure.empty())
      Failure = Why;
  }

  ValueGraph &G;
  const Function &F;
  Context &Ctx;
  GatingAnalysis GA;
  /// Node of each evaluated instruction, sized once from the function's
  /// instruction count.
  FlatMap<NodeId> ValueMap;
  /// Memory state leaving each evaluated block, by block number;
  /// InvalidNode until the block is processed.
  std::vector<NodeId> MemOut;
  /// μ nodes whose iteration side is patched after the body, with their
  /// initial values: one per loop-header φ and per memory-writing loop.
  template <typename Key> struct PendingMu {
    const Key *At;
    NodeId Mu;
    NodeId Init;
  };
  std::vector<PendingMu<PhiNode>> PendingValueMus;
  std::vector<PendingMu<BasicBlock>> PendingMemMus;
  /// Working lists of one join, φ or call at a time: the memory state
  /// arriving along each edge, the (gate, value) branches of the γ being
  /// built, and a call's operands. Nothing that fills one builds another
  /// node of the same sort before it is consumed.
  std::vector<std::pair<const BasicBlock *, NodeId>> Incoming;
  std::vector<GammaBranch> Branches;
  std::vector<NodeId> CallOps;
  NodeId RetNode = InvalidNode;
  std::string Failure;
};

} // namespace

BuildResult llvmmd::buildValueGraph(ValueGraph &G, const Function &F) {
  return Builder(G, F).run();
}
