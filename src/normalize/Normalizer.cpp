//===- Normalizer.cpp - Value-graph rewrite engine ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "normalize/Normalizer.h"

#include "ir/Folding.h"
#include "ir/Module.h"

#include <algorithm>

using namespace llvmmd;

namespace {

/// Applies the rules to one graph, one sweep at a time. One engine serves
/// every round of a fixpoint loop, so its walk sets, stacks and memos are
/// allocated once per pair rather than once per round; each sweep starts
/// from the same state a fresh engine would (see sweep()).
class RuleEngine {
public:
  RuleEngine(ValueGraph &G, const RuleConfig &C) : G(G), C(C) {}

  /// One full sweep over the live nodes, counted into \p RoundStats (the
  /// unswitch cap is per round, so it reads the round's own fires). A
  /// fire counts as a rewrite only if it created a node or merged two
  /// classes.
  void sweep(const std::vector<NodeId> &Roots, NormalizeStats &RoundStats) {
    Stats = &RoundStats;
    // The boolean type is learned anew each sweep, as the first i1 node
    // visited: rules that need it wait for it, so a type remembered from
    // an earlier sweep would let them fire sooner.
    BoolTy = nullptr;
    GraphRoots = Roots;
    computeLive(Roots);
    // Iterate over a snapshot of live roots in ascending id order;
    // rewrites may add nodes (they are processed next sweep).
    SweepOrder.assign(Live.begin(), Live.end());
    std::sort(SweepOrder.begin(), SweepOrder.end());
    for (NodeId N : SweepOrder) {
      if (G.find(N) != N)
        continue; // already merged away this sweep
      size_t Nodes = G.size();
      unsigned Merges = G.getMergeCount();
      ++Stats->NodesVisited;
      if (!applyRules(N))
        continue;
      if (G.size() == Nodes && G.getMergeCount() == Merges) {
        ++Stats->NoProgressFires;
        continue;
      }
      ++Stats->Rewrites;
      ++Stats->RuleFires[static_cast<unsigned>(Fired)];
    }
  }

private:
  using Rule = RewriteRule;

  /// Applies rule \p R: \p N is replaced by (merged into) \p Into.
  unsigned rewrite(Rule R, NodeId N, NodeId Into) {
    Fired = R;
    G.mergeInto(N, Into);
    return 1;
  }

  void computeLive(const std::vector<NodeId> &Roots) {
    Live.clear();
    Visited.clear();
    Stack.clear();
    for (NodeId R : Roots)
      Stack.push_back(G.find(R));
    while (!Stack.empty()) {
      NodeId N = Stack.back();
      Stack.pop_back();
      if (!Visited.insert(N))
        continue;
      Live.push_back(N);
      for (NodeId Op : G.node(N).Ops)
        if (Op != InvalidNode)
          Stack.push_back(G.find(Op));
    }
    LiveStamp = G.getMergeCount();
  }

  /// The liveness-sensitive rules (dead store / dead allocation) must see a
  /// live set that reflects all merges performed so far in this sweep.
  void refreshLive() {
    if (LiveStamp != G.getMergeCount())
      computeLive(GraphRoots);
  }

  bool isConstInt(NodeId N, int64_t *V = nullptr) const {
    const Node &Nd = G.node(N);
    if (Nd.Kind != NodeKind::ConstInt)
      return false;
    if (V)
      *V = Nd.IntVal;
    return true;
  }

  bool isBoolConst(NodeId N, bool Want) const {
    const Node &Nd = G.node(N);
    return Nd.Kind == NodeKind::ConstInt && Nd.Ty->isBool() &&
           (Nd.IntVal != 0) == Want;
  }

  NodeId boolNode(bool B) {
    // Type pointers come from the nodes themselves; find any i1 node.
    assert(BoolTy && "no boolean type seen in graph");
    return G.getConstBool(BoolTy, B);
  }

  unsigned applyRules(NodeId N) {
    const Node &Nd = G.node(N);
    if (Nd.Ty && Nd.Ty->isBool() && !BoolTy)
      BoolTy = Nd.Ty;
    switch (Nd.Kind) {
    case NodeKind::Op:
      return rewriteOp(N);
    case NodeKind::Gamma:
      return rewriteGamma(N);
    case NodeKind::Eta:
      return rewriteEta(N);
    case NodeKind::Load:
      return rewriteLoad(N);
    case NodeKind::Store:
      return rewriteStore(N);
    case NodeKind::AllocMem:
      return rewriteAllocMem(N);
    case NodeKind::Call:
      return rewriteCall(N);
    default:
      return 0;
    }
  }

  //===------------------------------------------------------------------===//
  // Op rules: boolean algebra, constant folding, canonicalization
  //===------------------------------------------------------------------===//

  unsigned rewriteOp(NodeId N) {
    const Node &Nd = G.node(N);
    if (Nd.Op == Opcode::GEP)
      return rewriteGEP(N);
    unsigned NumOps = Nd.Ops.size();
    if (NumOps == 1 && isCastOp(Nd.Op))
      return rewriteCast(N);
    if (NumOps != 2)
      return 0;
    NodeId A = G.operand(N, 0), B = G.operand(N, 1);

    // Constant folding (integers).
    if (C.has(RS_ConstFold)) {
      int64_t VA, VB;
      if (Nd.Op == Opcode::ICmp && isConstInt(A, &VA) && isConstInt(B, &VB)) {
        bool R = foldICmp(static_cast<ICmpPred>(Nd.Pred), VA, VB,
                          G.node(A).Ty->getBitWidth());
        return rewrite(Rule::ConstFoldIcmp, N, G.getConstBool(Nd.Ty, R));
      }
      if (isIntBinaryOp(Nd.Op) && isConstInt(A, &VA) && isConstInt(B, &VB)) {
        auto R = foldIntBinary(Nd.Op, VA, VB, Nd.Ty->getBitWidth());
        if (R)
          return rewrite(Rule::ConstFoldBinary, N, G.getConstInt(Nd.Ty, *R));
      }
      if (unsigned Hits = constIdentities(N, A, B))
        return Hits;
    }

    if (C.has(RS_FloatFold)) {
      const Node &NA = G.node(A), &NB = G.node(B);
      if (NA.Kind == NodeKind::ConstFloat && NB.Kind == NodeKind::ConstFloat) {
        if (isFloatBinaryOp(Nd.Op))
          return rewrite(Rule::FloatFoldBinary, N,
                         G.getConstFloat(Nd.Ty,
                                         foldFloatBinary(Nd.Op, NA.FloatVal,
                                                         NB.FloatVal)));
        if (Nd.Op == Opcode::FCmp)
          return rewrite(Rule::FloatFoldFcmp, N,
                         G.getConstBool(Nd.Ty,
                                        foldFCmp(static_cast<FCmpPred>(Nd.Pred),
                                                 NA.FloatVal, NB.FloatVal)));
      }
    }

    if (C.has(RS_Boolean)) {
      if (unsigned Hits = booleanRules(N, A, B))
        return Hits;
    }

    if (C.has(RS_Canonicalize)) {
      if (unsigned Hits = canonicalizeOp(N, A, B))
        return Hits;
    }
    return 0;
  }

  unsigned constIdentities(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    int64_t VA = 0, VB = 0;
    bool CA = isConstInt(A, &VA), CB = isConstInt(B, &VB);
    // Same-operand identities, mirroring the optimizer's simplifier.
    if (A == B) {
      switch (Nd.Op) {
      case Opcode::And:
      case Opcode::Or:
        return rewrite(Rule::ConstFoldIdem, N, A);
      case Opcode::Xor:
      case Opcode::Sub:
        return rewrite(Rule::ConstFoldSelfCancel, N, G.getConstInt(Nd.Ty, 0));
      default:
        break;
      }
    }
    switch (Nd.Op) {
    case Opcode::Add:
      // Commutative identities must look at both sides: hash-consing
      // orders operands by node id, which often puts constants first.
      if (CB && VB == 0)
        return rewrite(Rule::ConstFoldAdd0, N, A);
      if (CA && VA == 0)
        return rewrite(Rule::ConstFoldAdd0, N, B);
      break;
    case Opcode::Sub:
      if (CB && VB == 0)
        return rewrite(Rule::ConstFoldSub0, N, A);
      break;
    case Opcode::Mul:
      if (CB && VB == 1)
        return rewrite(Rule::ConstFoldMul1, N, A);
      if (CA && VA == 1)
        return rewrite(Rule::ConstFoldMul1, N, B);
      if ((CA && VA == 0) || (CB && VB == 0))
        return rewrite(Rule::ConstFoldMul0, N, G.getConstInt(Nd.Ty, 0));
      break;
    case Opcode::And:
      if ((CA && VA == 0) || (CB && VB == 0))
        return rewrite(Rule::ConstFoldAnd0, N, G.getConstInt(Nd.Ty, 0));
      if (CB && VB == -1)
        return rewrite(Rule::ConstFoldAnd1s, N, A);
      if (CA && VA == -1)
        return rewrite(Rule::ConstFoldAnd1s, N, B);
      break;
    case Opcode::Or:
      if (CB && VB == 0)
        return rewrite(Rule::ConstFoldOr0, N, A);
      if (CA && VA == 0)
        return rewrite(Rule::ConstFoldOr0, N, B);
      break;
    case Opcode::Xor:
      if (CB && VB == 0)
        return rewrite(Rule::ConstFoldXor0, N, A);
      if (CA && VA == 0)
        return rewrite(Rule::ConstFoldXor0, N, B);
      break;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (CB && VB == 0)
        return rewrite(Rule::ConstFoldShift0, N, A);
      break;
    case Opcode::SDiv:
    case Opcode::UDiv:
      if (CB && VB == 1)
        return rewrite(Rule::ConstFoldDiv1, N, A);
      break;
    default:
      break;
    }
    return 0;
  }

  unsigned booleanRules(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    if (Nd.Op == Opcode::ICmp) {
      auto P = static_cast<ICmpPred>(Nd.Pred);
      // Rules (1)-(2): a == a ↓ true, a != a ↓ false (and orderings).
      if (A == B) {
        bool R = P == ICmpPred::EQ || P == ICmpPred::SLE ||
                 P == ICmpPred::SGE || P == ICmpPred::ULE ||
                 P == ICmpPred::UGE;
        return rewrite(Rule::BoolCmpSame, N, G.getConstBool(Nd.Ty, R));
      }
      // Rules (3)-(4) at i1: a == true ↓ a, a != false ↓ a.
      if (G.node(A).Ty && G.node(A).Ty->isBool()) {
        if (P == ICmpPred::EQ && isBoolConst(B, true))
          return rewrite(Rule::BoolEqTrue, N, A);
        if (P == ICmpPred::NE && isBoolConst(B, false))
          return rewrite(Rule::BoolNeFalse, N, A);
        if (P == ICmpPred::EQ && isBoolConst(A, true))
          return rewrite(Rule::BoolEqTrue, N, B);
        if (P == ICmpPred::NE && isBoolConst(A, false))
          return rewrite(Rule::BoolNeFalse, N, B);
      }
      return 0;
    }
    if (!Nd.Ty || !Nd.Ty->isBool())
      return 0;
    // Complement recognition: y == ¬x.
    auto IsNotOf = [&](NodeId X, NodeId Y) {
      const Node &NY = G.node(Y);
      if (NY.Kind != NodeKind::Op || NY.Op != Opcode::Xor ||
          NY.Ops.size() != 2)
        return false;
      NodeId YA = G.find(NY.Ops[0]), YB = G.find(NY.Ops[1]);
      return (YA == X && isBoolConst(YB, true)) ||
             (YB == X && isBoolConst(YA, true));
    };
    switch (Nd.Op) {
    case Opcode::And:
      if (A == B || isBoolConst(B, true))
        return rewrite(Rule::BoolAnd, N, A);
      if (isBoolConst(A, true))
        return rewrite(Rule::BoolAnd, N, B);
      if (isBoolConst(A, false) || isBoolConst(B, false))
        return rewrite(Rule::BoolAndFalse, N, boolNode(false));
      if (IsNotOf(A, B) || IsNotOf(B, A))
        return rewrite(Rule::BoolAndComplement, N, boolNode(false));
      break;
    case Opcode::Or:
      if (A == B || isBoolConst(B, false))
        return rewrite(Rule::BoolOr, N, A);
      if (isBoolConst(A, false))
        return rewrite(Rule::BoolOr, N, B);
      if (isBoolConst(A, true) || isBoolConst(B, true))
        return rewrite(Rule::BoolOrTrue, N, boolNode(true));
      if (IsNotOf(A, B) || IsNotOf(B, A))
        return rewrite(Rule::BoolOrComplement, N, boolNode(true));
      break;
    case Opcode::Xor: {
      // not(not(x)) ↓ x ; xor x false ↓ x ; xor x x ↓ false. The constant
      // may sit on either side after commutative canonicalization.
      if (A == B)
        return rewrite(Rule::BoolXorSame, N, boolNode(false));
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isBoolConst(K, false))
          return rewrite(Rule::BoolXorFalse, N, X);
        if (!isBoolConst(K, true))
          continue;
        const Node &NX = G.node(X);
        if (NX.Kind == NodeKind::Op && NX.Op == Opcode::Xor &&
            NX.Ops.size() == 2) {
          // Inner negation: find its non-constant side.
          NodeId IA = G.find(NX.Ops[0]), IB = G.find(NX.Ops[1]);
          for (auto [IX, IK] : {std::pair{IA, IB}, std::pair{IB, IA}}) {
            if (isBoolConst(IK, true))
              return rewrite(Rule::BoolNotNot, N, IX);
          }
        }
        if (NX.Kind == NodeKind::ConstInt)
          return rewrite(Rule::BoolNotConst, N, boolNode(NX.IntVal == 0));
      }
      break;
    }
    default:
      break;
    }
    return 0;
  }

  unsigned canonicalizeOp(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    int64_t VA, VB;
    switch (Nd.Op) {
    case Opcode::Add:
      // a + a ↓ shl a 1 (LLVM prefers the shift).
      if (A == B)
        return rewrite(Rule::CanonAddSelf, N,
                       G.getOp(Opcode::Shl, Nd.Ty,
                               {A, G.getConstInt(Nd.Ty, 1)}));
      // add x (-k) ↓ sub x k. The constant may sit on either side: the
      // hash-consed operand order is by node id, not by kind.
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isConstInt(K, &VB) && VB < 0 &&
            VB != signExtend(int64_t(1) << (Nd.Ty->getBitWidth() - 1),
                             Nd.Ty->getBitWidth()))
          return rewrite(Rule::CanonAddNeg, N,
                         G.getOp(Opcode::Sub, Nd.Ty,
                                 {X, G.getConstInt(Nd.Ty, -VB)}));
      }
      break;
    case Opcode::Sub:
      if (A == B && C.has(RS_ConstFold))
        return rewrite(Rule::CanonSubSelf, N, G.getConstInt(Nd.Ty, 0));
      break;
    case Opcode::Mul:
      // mul a 2^k ↓ shl a k (either operand order).
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isConstInt(K, &VA) && VA > 1 &&
            (static_cast<uint64_t>(VA) &
             (static_cast<uint64_t>(VA) - 1)) == 0) {
          unsigned Shift = 0;
          while ((int64_t(1) << Shift) != VA)
            ++Shift;
          return rewrite(Rule::CanonMulPow2, N,
                         G.getOp(Opcode::Shl, Nd.Ty,
                                 {X, G.getConstInt(Nd.Ty, Shift)}));
        }
      }
      break;
    case Opcode::ICmp: {
      bool ConstA = G.node(A).Kind == NodeKind::ConstInt;
      bool ConstB = G.node(B).Kind == NodeKind::ConstInt;
      auto Swap = [&] {
        return G.getOp(Opcode::ICmp, Nd.Ty, {B, A},
                       static_cast<uint8_t>(
                           swapPred(static_cast<ICmpPred>(Nd.Pred))));
      };
      // Constant on the left: reorient (gt 10 a ↓ lt a 10).
      if (ConstA && !ConstB)
        return rewrite(Rule::CanonCmpSwap, N, Swap());
      // Neither constant: orient by node order so that GVN's predicate
      // canonicalization (a < b vs b > a) meets in one form. A constant
      // stays on the right whatever its id, or this would undo cmp-swap.
      if (!ConstA && !ConstB && B < A)
        return rewrite(Rule::CanonCmpOrient, N, Swap());
      break;
    }
    default:
      break;
    }
    return 0;
  }

  unsigned rewriteCast(NodeId N) {
    if (!C.has(RS_ConstFold))
      return 0;
    const Node &Nd = G.node(N);
    NodeId S = G.operand(N, 0);
    int64_t V;
    if (isConstInt(S, &V))
      return rewrite(Rule::ConstFoldCast, N,
                     G.getConstInt(Nd.Ty, foldCast(Nd.Op, V,
                                                   G.node(S).Ty->getBitWidth(),
                                                   Nd.Ty->getBitWidth())));
    return 0;
  }

  unsigned rewriteGEP(NodeId N) {
    if (!C.has(RS_ConstFold))
      return 0;
    NodeId Idx = G.operand(N, 1);
    int64_t V;
    if (isConstInt(Idx, &V) && V == 0)
      return rewrite(Rule::ConstFoldGep0, N, G.operand(N, 0));
    return 0;
  }

  //===------------------------------------------------------------------===//
  // Gamma rules (5)-(6)
  //===------------------------------------------------------------------===//

  unsigned rewriteGamma(NodeId N) {
    if (!C.has(RS_PhiSimplify))
      return 0;
    const Node &Nd = G.node(N);
    std::vector<GammaBranch> &Branches = GammaBranches;
    Branches.clear();
    bool Dropped = false;
    NodeId TrueBranchValue = InvalidNode;
    for (unsigned K = 0; K + 1 < Nd.Ops.size(); K += 2) {
      NodeId Cond = G.find(Nd.Ops[K]);
      NodeId Val = G.find(Nd.Ops[K + 1]);
      if (isBoolConst(Cond, false)) {
        Dropped = true;
        continue; // dead branch
      }
      if (isBoolConst(Cond, true) && TrueBranchValue == InvalidNode)
        TrueBranchValue = Val;
      Branches.emplace_back(Cond, Val);
    }
    // Rule (5): a branch whose conditions hold is the value.
    if (TrueBranchValue != InvalidNode)
      return rewrite(Rule::PhiRule5, N, TrueBranchValue);
    if (Branches.empty())
      return 0; // all branches dead: undefined; leave untouched
    // Rule (6): all branches agree.
    bool AllSame = true;
    for (auto &[Cond, Val] : Branches)
      AllSame &= Val == Branches.front().second;
    if (AllSame)
      return rewrite(Rule::PhiRule6, N, Branches.front().second);
    if (Dropped)
      return rewrite(Rule::PhiDropFalse, N, G.getGamma(Nd.Ty, Branches));
    // Flatten a nested γ: a branch (c, γ(d_i → v_i)) becomes the branches
    // (c ∧ d_i → v_i). This is how a select tree and a multi-way φ over
    // conjunctive gates meet in one canonical flat form (footnote 1 of the
    // paper: short-circuit conditions make such φs common).
    for (unsigned Which = 0; Which < Branches.size(); ++Which) {
      const Node &NV = G.node(Branches[Which].second);
      if (NV.Kind != NodeKind::Gamma)
        continue;
      if (!BoolTy)
        break; // cannot build conjunctions yet
      std::vector<GammaBranch> &Flat = FlatBranches;
      Flat.clear();
      for (unsigned K2 = 0; K2 < Branches.size(); ++K2)
        if (K2 != Which)
          Flat.push_back(Branches[K2]);
      NodeId Outer = Branches[Which].first;
      for (unsigned K2 = 0; K2 + 1 < NV.Ops.size(); K2 += 2) {
        NodeId InnerC = G.find(NV.Ops[K2]);
        NodeId InnerV = G.find(NV.Ops[K2 + 1]);
        Flat.emplace_back(G.getOp(Opcode::And, BoolTy, {Outer, InnerC}),
                          InnerV);
      }
      return rewrite(Rule::PhiFlatten, N, G.getGamma(Nd.Ty, Flat));
    }
    // Boolean γ(c → true, !c → false) ↓ c.
    if (C.has(RS_Boolean) && Nd.Ty && Nd.Ty->isBool() &&
        Branches.size() == 2) {
      for (unsigned Which = 0; Which < 2; ++Which) {
        NodeId CT = Branches[Which].first, VT = Branches[Which].second;
        NodeId VF = Branches[1 - Which].second;
        if (isBoolConst(VT, true) && isBoolConst(VF, false))
          return rewrite(Rule::BoolGammaToCond, N, CT);
      }
    }
    return 0;
  }

  //===------------------------------------------------------------------===//
  // Eta / Mu rules (7)-(9) + commuting
  //===------------------------------------------------------------------===//

  unsigned rewriteEta(NodeId N) {
    NodeId Cond = G.operand(N, 0);
    NodeId Val = G.operand(N, 1);
    const Node &NV = G.node(Val);

    if (C.has(RS_EtaMu)) {
      if (NV.Kind == NodeKind::Mu && NV.Ops[0] != InvalidNode) {
        NodeId Init = G.find(NV.Ops[0]);
        NodeId Next = G.find(NV.Ops[1]);
        // Rule (7): the loop never executes.
        if (isBoolConst(Cond, false))
          return rewrite(Rule::EtaRule7, N, Init);
        // Rule (7) continued: a loop whose guard is false on entry. The
        // stay condition seen symbolically contains the μ streams; evaluate
        // it at the first iteration by substituting every μ by its initial
        // value (η nodes are opaque: they belong to other loops).
        if (auto First = firstIterValue(Cond); First && *First == 0)
          return rewrite(Rule::EtaRule7FirstIter, N, Init);
        // Rule (8): μ(x, x) — the value never varies.
        if (Init == Next)
          return rewrite(Rule::EtaRule8, N, Init);
        // Rule (9): μ(x, self) — generalized to μ whose iteration value is
        // itself behind η layers (an inner loop that never modified it).
        NodeId Strip = Next;
        while (G.node(Strip).Kind == NodeKind::Eta)
          Strip = G.find(G.node(Strip).Ops[1]);
        if (Strip == Val)
          return rewrite(Rule::EtaRule9, N, Init);
      }
      // η over a loop-free value is the value itself.
      if (NV.Kind != NodeKind::Mu && !G.coneContainsMu(Val))
        return rewrite(Rule::EtaLoopFree, N, Val);
    }

    if (C.has(RS_Commuting)) {
      // Validating loop unswitching: distribute a loop-invariant γ out of
      // the μ cycle by duplicating the loop under both polarities.
      if (NV.Kind == NodeKind::Mu && NV.Ops[0] != InvalidNode) {
        if (unsigned Hits = unswitchEta(N, Cond, Val))
          return Hits;
      }
      // Push η toward μ: distribute over pure structure.
      if (NV.Kind == NodeKind::Op) {
        std::vector<NodeId> &NewOps = OpsBuf;
        NewOps.clear();
        for (NodeId Op : NV.Ops)
          NewOps.push_back(G.getEta(G.node(G.find(Op)).Ty, Cond, G.find(Op)));
        return rewrite(Rule::CommuteEtaOp, N,
                       G.getOp(NV.Op, NV.Ty, NewOps, NV.Pred, NV.IntVal));
      }
      if (NV.Kind == NodeKind::Gamma) {
        std::vector<GammaBranch> &Branches = GammaBranches;
        Branches.clear();
        for (unsigned K = 0; K + 1 < NV.Ops.size(); K += 2) {
          NodeId BC = G.find(NV.Ops[K]);
          NodeId BV = G.find(NV.Ops[K + 1]);
          Branches.emplace_back(G.getEta(G.node(BC).Ty, Cond, BC),
                                G.getEta(G.node(BV).Ty, Cond, BV));
        }
        return rewrite(Rule::CommuteEtaGamma, N, G.getGamma(NV.Ty, Branches));
      }
      if (NV.Kind == NodeKind::Load) {
        NodeId P = G.find(NV.Ops[0]), M = G.find(NV.Ops[1]);
        return rewrite(Rule::CommuteEtaLoad, N,
                       G.getLoad(NV.Ty, G.getEta(G.node(P).Ty, Cond, P),
                                 G.getEta(nullptr, Cond, M)));
      }
      if (NV.Kind == NodeKind::Store) {
        NodeId V = G.find(NV.Ops[0]), P = G.find(NV.Ops[1]),
               M = G.find(NV.Ops[2]);
        return rewrite(Rule::CommuteEtaStore, N,
                       G.getStore(G.getEta(G.node(V).Ty, Cond, V),
                                  G.getEta(G.node(P).Ty, Cond, P),
                                  G.getEta(nullptr, Cond, M)));
      }
    }
    return 0;
  }

  /// True if the byte range [PtrOff, PtrOff+Size) of \p Ptr lies wholly
  /// inside the memset fill [DstOff, DstOff+Len) over the same base.
  bool memsetCovers(NodeId Dst, int64_t Len, NodeId Ptr, unsigned Size) {
    auto Walk = [&](NodeId P, int64_t &Off) -> NodeId {
      Off = 0;
      NodeId Cur = G.find(P);
      while (G.node(Cur).Kind == NodeKind::Op &&
             G.node(Cur).Op == Opcode::GEP) {
        const Node &NG = G.node(Cur);
        const Node &Idx = G.node(G.find(NG.Ops[1]));
        if (Idx.Kind != NodeKind::ConstInt)
          return InvalidNode;
        Off += Idx.IntVal * NG.IntVal;
        Cur = G.find(NG.Ops[0]);
      }
      return Cur;
    };
    int64_t DstOff, PtrOff;
    NodeId DstBase = Walk(Dst, DstOff);
    NodeId PtrBase = Walk(Ptr, PtrOff);
    if (DstBase == InvalidNode || PtrBase == InvalidNode ||
        DstBase != PtrBase)
      return false;
    return PtrOff >= DstOff &&
           PtrOff + static_cast<int64_t>(Size) <= DstOff + Len;
  }

  /// Evaluates \p N at a loop's first iteration: μ nodes contribute their
  /// initial value, constants themselves, pure integer ops fold; anything
  /// else (η, loads, calls, params) is unknown. Recursion deeper than
  /// FirstIterMaxDepth is unknown too.
  std::optional<int64_t> firstIterValue(NodeId N) {
    if (++FirstIterQuery == 0) {
      FirstIterSlots.assign(FirstIterSlots.size(), FirstIterSlot());
      FirstIterQuery = 1;
    }
    // The query creates no nodes, so the slots stay put during it.
    if (FirstIterSlots.size() < G.size())
      FirstIterSlots.resize(G.size());
    unsigned Height;
    return firstIterAt(N, 0, Height);
  }

  static constexpr unsigned FirstIterMaxDepth = 64;

  /// One memo slot of firstIterValue per node, valid while Query matches
  /// the current query. Unknown is absorbing: an unknown operand makes
  /// every node above it unknown, up to the query itself. So a node found
  /// unknown, or reached again while still being evaluated (a cycle, which
  /// the recursion would follow to the cap), answers unknown wherever it is
  /// reached. A node known with cone height H (its longest followed operand
  /// path) is known at depth D iff D + H is within the cap. The memo thus
  /// answers exactly what the unmemoized recursion answered, in time
  /// linear in the cone instead of exponential in shared operands.
  struct FirstIterSlot {
    uint32_t Query = 0;
    bool Known = false;
    uint8_t Height = 0;
    int64_t Value = 0;
  };

  std::optional<int64_t> firstIterAt(NodeId N, unsigned Depth,
                                     unsigned &Height) {
    if (Depth > FirstIterMaxDepth)
      return std::nullopt;
    N = G.find(N);
    FirstIterSlot &S = FirstIterSlots[N];
    if (S.Query == FirstIterQuery) {
      if (!S.Known || Depth + S.Height > FirstIterMaxDepth)
        return std::nullopt;
      Height = S.Height;
      return S.Value;
    }
    S.Query = FirstIterQuery;
    S.Known = false;
    Height = 0;
    std::optional<int64_t> R = firstIterEval(N, Depth, Height);
    if (R) {
      S.Known = true;
      S.Height = static_cast<uint8_t>(Height);
      S.Value = *R;
    }
    return R;
  }

  /// One step of firstIterAt: evaluates \p N's operands one level deeper
  /// and raises \p Height to one above the highest of them.
  std::optional<int64_t> firstIterEval(NodeId N, unsigned Depth,
                                       unsigned &Height) {
    auto Operand = [&](NodeId Op) {
      unsigned H = 0;
      std::optional<int64_t> V = firstIterAt(Op, Depth + 1, H);
      Height = std::max(Height, H + 1);
      return V;
    };
    const Node &Nd = G.node(N);
    switch (Nd.Kind) {
    case NodeKind::ConstInt:
      return Nd.IntVal;
    case NodeKind::Mu:
      if (Nd.Ops[0] == InvalidNode)
        return std::nullopt;
      return Operand(Nd.Ops[0]);
    case NodeKind::Op: {
      if (!Nd.Ty || !Nd.Ty->isInteger())
        return std::nullopt;
      if (Nd.Op == Opcode::ICmp && Nd.Ops.size() == 2) {
        auto A = Operand(Nd.Ops[0]);
        auto B = Operand(Nd.Ops[1]);
        if (!A || !B)
          return std::nullopt;
        Type *OpTy = G.node(G.find(Nd.Ops[0])).Ty;
        if (!OpTy || !OpTy->isInteger())
          return std::nullopt;
        return foldICmp(static_cast<ICmpPred>(Nd.Pred), *A, *B,
                        OpTy->getBitWidth())
                   ? 1
                   : 0;
      }
      if (isIntBinaryOp(Nd.Op) && Nd.Ops.size() == 2) {
        auto A = Operand(Nd.Ops[0]);
        auto B = Operand(Nd.Ops[1]);
        if (!A || !B)
          return std::nullopt;
        auto R = foldIntBinary(Nd.Op, *A, *B, Nd.Ty->getBitWidth());
        return R ? std::optional<int64_t>(*R) : std::nullopt;
      }
      if (isCastOp(Nd.Op) && Nd.Ops.size() == 1) {
        auto A = Operand(Nd.Ops[0]);
        Type *SrcTy = G.node(G.find(Nd.Ops[0])).Ty;
        if (!A || !SrcTy || !SrcTy->isInteger())
          return std::nullopt;
        return foldCast(Nd.Op, *A, SrcTy->getBitWidth(),
                        Nd.Ty->getBitWidth());
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }

  //===------------------------------------------------------------------===//
  // Unswitch commuting: η(e, μ[... γ(c,a,b) ...]) with loop-invariant c
  // becomes γ(c → η_t, ¬c → η_f), where η_t/η_f are copies of the loop
  // with the γ resolved to its true/false side. Mirrors what the loop
  // unswitching pass did to the optimized function.
  //===------------------------------------------------------------------===//

  /// Finds a two-branch γ inside the cone of \p Mu whose branch conditions
  /// are {c, ¬c} with c independent of the loop (no path back to Mu).
  /// Returns (gamma, c, trueVal, falseVal) via out-params; on success the
  /// μ's ancestors are in Ancestors.
  bool findInvariantGamma(NodeId Mu, NodeId &GammaOut, NodeId &CondOut,
                          NodeId &TrueOut, NodeId &FalseOut) {
    Visited.clear();
    unsigned NumSeen = 0;
    Stack.assign(1, G.operand(Mu, 1));
    std::vector<NodeId> &Candidates = GammaCandidates;
    Candidates.clear();
    while (!Stack.empty()) {
      NodeId N = G.find(Stack.back());
      Stack.pop_back();
      if (!Visited.insert(N) || ++NumSeen > 512)
        continue;
      const Node &Nd = G.node(N);
      if (Nd.Kind == NodeKind::Gamma && Nd.Ops.size() == 4)
        Candidates.push_back(N);
      for (NodeId Op : Nd.Ops)
        if (Op != InvalidNode)
          Stack.push_back(Op);
    }
    std::sort(Candidates.begin(), Candidates.end());
    bool HaveMuAncestors = false;
    for (NodeId N : Candidates) {
      const Node &Nd = G.node(N);
      NodeId C1 = G.find(Nd.Ops[0]), V1 = G.find(Nd.Ops[1]);
      NodeId C2 = G.find(Nd.Ops[2]), V2 = G.find(Nd.Ops[3]);
      // Match {c, xor(c, true)} in either order.
      auto NotOf = [&](NodeId X) -> NodeId {
        const Node &NX = G.node(X);
        if (NX.Kind == NodeKind::Op && NX.Op == Opcode::Xor &&
            NX.Ops.size() == 2) {
          NodeId A = G.find(NX.Ops[0]), B = G.find(NX.Ops[1]);
          if (isBoolConst(B, true))
            return A;
          if (isBoolConst(A, true))
            return B;
        }
        return InvalidNode;
      };
      NodeId Cond = InvalidNode, TV = InvalidNode, FV = InvalidNode;
      if (NotOf(C2) == C1) {
        Cond = C1;
        TV = V1;
        FV = V2;
      } else if (NotOf(C1) == C2) {
        Cond = C2;
        TV = V2;
        FV = V1;
      } else {
        continue;
      }
      // The condition must not depend on the loop (and must not be
      // trivially constant, which PhiSimplify would handle).
      if (!HaveMuAncestors) {
        Ancestors.clear();
        addAncestors(Mu);
        HaveMuAncestors = true;
      }
      if (Ancestors.contains(Cond))
        continue;
      GammaOut = N;
      CondOut = Cond;
      TrueOut = TV;
      FalseOut = FV;
      return true;
    }
    return false;
  }

  /// Adds every root from which \p Id is reachable, \p Id included, to
  /// Ancestors: one upward walk over the use lists.
  void addAncestors(NodeId Id) {
    NodeId Root = G.find(Id);
    if (!Ancestors.insert(Root))
      return;
    Stack.assign(1, Root);
    while (!Stack.empty()) {
      NodeId N = Stack.back();
      Stack.pop_back();
      G.forEachUser(N, [&](NodeId U) {
        if (Ancestors.insert(U))
          Stack.push_back(U);
      });
    }
  }

  /// Clones the cone of \p N substituting γ \p Gamma by \p Repl; nodes that
  /// cannot reach either the γ or the μ \p Mu (not in Ancestors) are
  /// shared, not cloned. \p Memo has one slot per node that existed when
  /// the unswitch began, NotCloned until that node is visited; only those
  /// nodes are ever looked up, as cloning merges nothing.
  NodeId cloneSubst(NodeId N, NodeId Gamma, NodeId Repl, NodeId Mu,
                    std::vector<NodeId> &Memo) {
    N = G.find(N);
    if (N == G.find(Gamma))
      return cloneSubst(Repl, Gamma, Repl, Mu, Memo);
    assert(N < Memo.size() && "clone lookup of a node made by the clone");
    if (Memo[N] != NotCloned)
      return Memo[N];
    if (!Ancestors.contains(N)) {
      Memo[N] = N; // invariant: share
      return N;
    }
    const Node &Nd = G.node(N);
    if (Nd.Kind == NodeKind::Mu) {
      if (Nd.Ops[0] == InvalidNode || Nd.Ops[1] == InvalidNode)
        return InvalidNode; // unfinished μ (should not be live)
      NodeId NewMu = G.makeMu(Nd.Ty);
      Memo[N] = NewMu; // break the cycle before recursing
      NodeId Init = cloneSubst(Nd.Ops[0], Gamma, Repl, Mu, Memo);
      NodeId Next = cloneSubst(Nd.Ops[1], Gamma, Repl, Mu, Memo);
      if (Init == InvalidNode || Next == InvalidNode) {
        // Park the unfinished μ on itself so it is inert, and fail.
        G.setMuOperands(NewMu, NewMu, NewMu);
        Memo[N] = InvalidNode;
        return InvalidNode;
      }
      G.setMuOperands(NewMu, Init, Next);
      return NewMu;
    }
    Memo[N] = InvalidNode; // cycle guard (non-μ cycles should not exist)
    // The clone's operands go on CloneOps above the callers' own; the
    // recursion may grow the vector, so they are addressed by index.
    const size_t Base = CloneOps.size(), Arity = Nd.Ops.size();
    CloneOps.insert(CloneOps.end(), Nd.Ops.begin(), Nd.Ops.end());
    for (size_t K = 0; K < Arity; ++K) {
      if (CloneOps[Base + K] == InvalidNode)
        continue;
      NodeId Op = cloneSubst(CloneOps[Base + K], Gamma, Repl, Mu, Memo);
      if (Op == InvalidNode) {
        // A cycle not broken by a μ (or a prior failure): give up on this
        // clone entirely; the caller abandons the rewrite.
        Memo[N] = InvalidNode;
        CloneOps.resize(Base);
        return InvalidNode;
      }
      CloneOps[Base + K] = Op;
    }
    const NodeId *Ops = CloneOps.data() + Base;
    NodeId New;
    switch (Nd.Kind) {
    case NodeKind::Op:
      New = G.getOp(Nd.Op, Nd.Ty, {Ops, Arity}, Nd.Pred, Nd.IntVal);
      break;
    case NodeKind::Gamma:
      CloneBranches.clear();
      for (size_t K = 0; K + 1 < Arity; K += 2)
        CloneBranches.emplace_back(Ops[K], Ops[K + 1]);
      New = G.getGamma(Nd.Ty, CloneBranches);
      break;
    case NodeKind::Eta:
      New = G.getEta(Nd.Ty, Ops[0], Ops[1]);
      break;
    case NodeKind::Load:
      New = G.getLoad(Nd.Ty, Ops[0], Ops[1]);
      break;
    case NodeKind::Store:
      New = G.getStore(Ops[0], Ops[1], Ops[2]);
      break;
    case NodeKind::Alloc:
      New = G.getAlloc(Ops[0], Ops[1], static_cast<unsigned>(Nd.IntVal));
      break;
    case NodeKind::AllocMem:
      New = G.getAllocMem(Ops[0]);
      break;
    case NodeKind::Call:
      New = G.getCall(Nd.Str, static_cast<MemoryEffect>(Nd.IntVal), Nd.Ty,
                      {Ops, Arity});
      break;
    case NodeKind::CallMem:
      New = G.getCallMem(Ops[0]);
      break;
    default:
      New = N; // leaves are never cloned
      break;
    }
    CloneOps.resize(Base);
    Memo[N] = New;
    return New;
  }

  unsigned unswitchEta(NodeId N, NodeId Cond, NodeId Mu) {
    // Each application duplicates a loop cone; cap the growth per round.
    if (Stats->fires(Rule::CommuteUnswitch) >= 8)
      return 0;
    NodeId Gamma = InvalidNode, C2 = InvalidNode, TV = InvalidNode,
           FV = InvalidNode;
    if (!findInvariantGamma(Mu, Gamma, C2, TV, FV))
      return 0;
    addAncestors(Gamma);
    MemoT.assign(G.size(), NotCloned);
    MemoF.assign(G.size(), NotCloned);
    Type *EtaTy = G.node(N).Ty;
    NodeId CondT = cloneSubst(Cond, Gamma, TV, Mu, MemoT);
    NodeId MuT = cloneSubst(Mu, Gamma, TV, Mu, MemoT);
    NodeId CondF = cloneSubst(Cond, Gamma, FV, Mu, MemoF);
    NodeId MuF = cloneSubst(Mu, Gamma, FV, Mu, MemoF);
    if (CondT == InvalidNode || MuT == InvalidNode || CondF == InvalidNode ||
        MuF == InvalidNode)
      return 0; // unclonable cone; leave the η alone
    NodeId EtaT = G.getEta(EtaTy, CondT, MuT);
    NodeId EtaF = G.getEta(EtaTy, CondF, MuF);
    assert(BoolTy && "unswitching without a boolean type in the graph");
    NodeId NotC = G.getOp(Opcode::Xor, BoolTy, {C2, boolNode(true)});
    return rewrite(Rule::CommuteUnswitch, N,
                   G.getGamma(EtaTy, {{C2, EtaT}, {NotC, EtaF}}));
  }

  //===------------------------------------------------------------------===//
  // Memory rules (10)-(11), dead stores/allocations, libc knowledge
  //===------------------------------------------------------------------===//

  unsigned accessSize(const Node &LoadNode) const {
    return LoadNode.Ty ? LoadNode.Ty->getStoreSize() : 1;
  }

  unsigned rewriteLoad(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    const Node &Nd = G.node(N);
    NodeId Ptr = G.operand(N, 0);
    NodeId Mem = G.operand(N, 1);
    const Node &NM = G.node(Mem);

    if (NM.Kind == NodeKind::Store) {
      NodeId SV = G.find(NM.Ops[0]);
      NodeId SP = G.find(NM.Ops[1]);
      NodeId SM = G.find(NM.Ops[2]);
      unsigned LSize = accessSize(Nd);
      unsigned SSize = G.node(SV).Ty ? G.node(SV).Ty->getStoreSize() : 1;
      int AR = G.aliasPointers(Ptr, SP, LSize, SSize);
      // Rule (11): load of the just-stored value.
      if (AR == 2 && G.node(SV).Ty == Nd.Ty)
        return rewrite(Rule::LoadStoreRule11, N, SV);
      // Rule (10): the load jumps over a non-aliasing store.
      if (AR == 0)
        return rewrite(Rule::LoadStoreRule10, N, G.getLoad(Nd.Ty, Ptr, SM));
      return 0;
    }
    // Allocations do not write memory: jump over them.
    if (NM.Kind == NodeKind::AllocMem) {
      NodeId Alloc = G.find(NM.Ops[0]);
      NodeId PreMem = G.operand(Alloc, 1);
      return rewrite(Rule::LoadStoreSkipAlloc, N,
                     G.getLoad(Nd.Ty, Ptr, PreMem));
    }
    // Folding a load of a constant global (extension rule set).
    if (C.has(RS_GlobalFold) && C.M) {
      const Node &NP = G.node(Ptr);
      if (NP.Kind == NodeKind::Global && NP.IntVal /*constant-qualified*/) {
        if (const GlobalVariable *GV = C.M->getGlobal(std::string(NP.Str))) {
          if (GV->hasInitializer() && GV->getValueType() == Nd.Ty) {
            if (const auto *CI = dyn_cast<ConstantInt>(GV->getInitializer()))
              return rewrite(Rule::GlobalFoldLoad, N,
                             G.getConstInt(Nd.Ty, CI->getSExtValue()));
            if (const auto *CF = dyn_cast<ConstantFP>(GV->getInitializer()))
              return rewrite(Rule::GlobalFoldLoad, N,
                             G.getConstFloat(Nd.Ty, CF->getValue()));
          }
        }
      }
    }
    // A load whose memory is a loop μ can read the loop's initial memory
    // when no write inside the cycle may alias it (mirrors LICM hoisting a
    // load out of a loop that only writes elsewhere).
    if (NM.Kind == NodeKind::Mu && NM.Ops[0] != InvalidNode) {
      if (muWritesDisjointFrom(Mem, {&Ptr, 1}))
        return rewrite(Rule::LoadStoreLoadOverLoop, N,
                       G.getLoad(Nd.Ty, Ptr, G.find(NM.Ops[0])));
    }
    // Libc: loads may jump over memset to a disjoint region, or read the
    // memset fill byte.
    if (C.has(RS_Libc) && NM.Kind == NodeKind::CallMem) {
      NodeId Call = G.find(NM.Ops[0]);
      const Node &NC = G.node(Call);
      if (NC.Str == "memset" && NC.Ops.size() == 4) {
        NodeId Dst = G.find(NC.Ops[0]);
        NodeId Fill = G.find(NC.Ops[1]);
        NodeId Len = G.find(NC.Ops[2]);
        NodeId PreMem = G.find(NC.Ops[3]);
        int64_t LenV;
        unsigned LSize = accessSize(Nd);
        const Node &LenNode = G.node(Len);
        if (LenNode.Kind == NodeKind::ConstInt) {
          LenV = LenNode.IntVal < 0 ? 0 : LenNode.IntVal;
          int AR = G.aliasPointers(Ptr, Dst, LSize,
                                   static_cast<unsigned>(LenV));
          if (AR == 0)
            return rewrite(Rule::LibcLoadOverMemset, N,
                           G.getLoad(Nd.Ty, Ptr, PreMem));
          // Reading a byte wholly inside the filled region yields the fill
          // value (the paper's memset rule, l2 < l1).
          int64_t FillV;
          if (LSize == 1 && isConstInt(Fill, &FillV) && Nd.Ty->isInteger() &&
              memsetCovers(Dst, LenV, Ptr, LSize)) {
            return rewrite(Rule::LibcMemsetRead, N,
                           G.getConstInt(Nd.Ty, signExtend(FillV, 8)));
          }
        }
      }
    }
    return 0;
  }

  unsigned rewriteStore(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    NodeId Val = G.find(G.node(N).Ops[0]);
    NodeId Ptr = G.operand(N, 1);
    NodeId Mem = G.operand(N, 2);
    const Node &NM = G.node(Mem);
    // Store-over-store to the same location: the older store is dead.
    if (NM.Kind == NodeKind::Store) {
      NodeId SP = G.find(NM.Ops[1]);
      NodeId SM = G.find(NM.Ops[2]);
      unsigned NewSize = G.node(Val).Ty ? G.node(Val).Ty->getStoreSize() : 1;
      NodeId OldVal = G.find(NM.Ops[0]);
      unsigned OldSize =
          G.node(OldVal).Ty ? G.node(OldVal).Ty->getStoreSize() : 1;
      int AR = G.aliasPointers(Ptr, SP, NewSize, OldSize);
      if (AR == 2 && NewSize >= OldSize)
        return rewrite(Rule::LoadStoreStoreOverStore, N,
                       G.getStore(Val, Ptr, SM));
      // Adjacent stores to disjoint locations commute; order the chain
      // canonically (smaller pointer root innermost) so both functions'
      // chains meet in one shape regardless of emission order.
      if (AR == 0 && G.find(Ptr) < G.find(SP))
        return rewrite(Rule::LoadStoreStoreCommute, N,
                       G.getStore(OldVal, SP, G.getStore(Val, Ptr, SM)));
    }
    // Dead store: non-escaping allocation never read by any live load.
    if (storeIsDead(Ptr))
      return rewrite(Rule::LoadStoreDeadStore, N, Mem);
    return 0;
  }

  /// True if a store to \p Ptr writes a non-escaping allocation from which
  /// no live load may read.
  bool storeIsDead(NodeId Ptr) {
    NodeId Base = Ptr;
    // Walk GEPs to the base.
    while (G.node(Base).Kind == NodeKind::Op &&
           G.node(Base).Op == Opcode::GEP)
      Base = G.find(G.node(Base).Ops[0]);
    if (G.node(Base).Kind != NodeKind::Alloc)
      return false;
    if (!G.isNonEscapingAlloc(Base))
      return false;
    refreshLive();
    // Any live load that may alias the store's pointer keeps it alive.
    for (NodeId L : Live) {
      if (G.find(L) != L)
        continue;
      const Node &NL = G.node(L);
      if (NL.Kind != NodeKind::Load)
        continue;
      unsigned LSize = NL.Ty ? NL.Ty->getStoreSize() : 1;
      if (G.aliasPointers(G.find(NL.Ops[0]), Ptr, LSize, 8) != 0)
        return false;
    }
    return true;
  }

  unsigned rewriteAllocMem(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    // Dead allocation: the pointer is never used by any live node.
    NodeId Alloc = G.find(G.node(N).Ops[0]);
    refreshLive();
    for (NodeId L : Live) {
      if (G.find(L) != L || L == N)
        continue;
      for (NodeId Op : G.node(L).Ops)
        if (Op != InvalidNode && G.find(Op) == Alloc)
          return 0; // still referenced
    }
    // The memory state before the allocation.
    return rewrite(Rule::LoadStoreDeadAlloc, N, G.operand(Alloc, 1));
  }

  unsigned rewriteCall(NodeId N) {
    if (!C.has(RS_Libc))
      return 0;
    const Node &Nd = G.node(N);
    auto Effect = static_cast<MemoryEffect>(Nd.IntVal);
    if (Effect != MemoryEffect::ReadOnly || Nd.Ops.empty())
      return 0;
    NodeId Mem = G.find(Nd.Ops.back());
    std::vector<NodeId> &PtrArgs = CallPtrArgs;
    PtrArgs.clear();
    for (unsigned K = 0; K + 1 < Nd.Ops.size(); ++K) {
      NodeId A = G.find(Nd.Ops[K]);
      if (G.node(A).Ty && G.node(A).Ty->isPointer())
        PtrArgs.push_back(A);
    }
    // The same readonly call over an earlier memory state.
    auto CallOver = [&](Rule R, NodeId EarlierMem) {
      std::vector<NodeId> &NewOps = OpsBuf;
      NewOps.assign(Nd.Ops.begin(), Nd.Ops.end() - 1);
      NewOps.push_back(EarlierMem);
      return rewrite(R, N, G.getCall(Nd.Str, Effect, Nd.Ty, NewOps));
    };
    const Node &NM = G.node(Mem);
    // A readonly call jumps over a store none of its pointers can see.
    if (NM.Kind == NodeKind::Store) {
      NodeId SP = G.find(NM.Ops[1]);
      bool AllDisjoint = true;
      for (NodeId P : PtrArgs)
        AllDisjoint &= G.aliasPointers(P, SP, 4096, 8) == 0;
      if (AllDisjoint)
        return CallOver(Rule::LibcCallOverStore, G.find(NM.Ops[2]));
      return 0;
    }
    if (NM.Kind == NodeKind::AllocMem)
      return CallOver(Rule::LibcCallOverAlloc,
                      G.operand(G.find(NM.Ops[0]), 1));
    // A readonly call whose memory is a loop μ can use the loop's initial
    // memory if no write inside the loop can affect its pointers.
    if (NM.Kind == NodeKind::Mu && NM.Ops[0] != InvalidNode &&
        muWritesDisjointFrom(Mem, PtrArgs))
      return CallOver(Rule::LibcCallOverLoop, G.find(NM.Ops[0]));
    return 0;
  }

  /// Walks the memory chain of the μ cycle; true if every store in it is
  /// disjoint from every pointer in \p PtrArgs and no opaque CallMem
  /// appears.
  bool muWritesDisjointFrom(NodeId Mu, ArrayRef<NodeId> PtrArgs) {
    Visited.clear();
    std::vector<NodeId> &Work = Stack;
    Work.assign(1, G.find(G.node(Mu).Ops[1]));
    while (!Work.empty()) {
      NodeId M = G.find(Work.back());
      Work.pop_back();
      if (M == G.find(Mu) || !Visited.insert(M))
        continue;
      const Node &NM = G.node(M);
      switch (NM.Kind) {
      case NodeKind::Store: {
        NodeId SP = G.find(NM.Ops[1]);
        for (NodeId P : PtrArgs)
          if (G.aliasPointers(P, SP, 4096, 8) != 0)
            return false;
        Work.push_back(NM.Ops[2]);
        break;
      }
      case NodeKind::AllocMem:
        Work.push_back(G.operand(G.find(NM.Ops[0]), 1));
        break;
      case NodeKind::CallMem:
        return false;
      case NodeKind::Gamma:
        for (unsigned K = 1; K < NM.Ops.size(); K += 2)
          Work.push_back(NM.Ops[K]);
        break;
      case NodeKind::Eta:
        Work.push_back(NM.Ops[1]);
        break;
      case NodeKind::Mu:
        // A nested loop's memory: recurse through both sides.
        if (NM.Ops[0] != InvalidNode) {
          Work.push_back(NM.Ops[0]);
          Work.push_back(NM.Ops[1]);
        }
        break;
      case NodeKind::InitialMem:
        break;
      default:
        return false; // unexpected node in a memory chain
      }
    }
    return true;
  }

  ValueGraph &G;
  const RuleConfig &C;
  /// The current round's counters.
  NormalizeStats *Stats = nullptr;
  /// The live nodes in discovery order. Only the sweep depends on an
  /// order, and it sorts its own snapshot (SweepOrder); the liveness rules
  /// ask whether any live node qualifies.
  std::vector<NodeId> Live, SweepOrder;
  std::vector<NodeId> GraphRoots;
  /// Visited set and work stack of the engine's walks (liveness, the
  /// invariant-γ search, the ancestor walk, the μ memory walk); no walk
  /// runs inside another, and the graph's own queries keep their own set.
  NodeSet Visited;
  std::vector<NodeId> Stack;
  /// Working lists of single rule applications, reused across nodes: no
  /// rule application runs inside another.
  std::vector<GammaBranch> GammaBranches, FlatBranches;
  std::vector<NodeId> OpsBuf, CallPtrArgs, GammaCandidates;
  /// cloneSubst's operand stack and the branches of the γ it rebuilds.
  std::vector<NodeId> CloneOps;
  std::vector<GammaBranch> CloneBranches;
  /// The roots that reach the μ or the γ of the unswitch in progress.
  NodeSet Ancestors;
  /// cloneSubst's memo of each polarity, by node id.
  static constexpr NodeId NotCloned = InvalidNode - 1;
  std::vector<NodeId> MemoT, MemoF;
  std::vector<FirstIterSlot> FirstIterSlots;
  uint32_t FirstIterQuery = 0;
  unsigned LiveStamp = 0;
  Type *BoolTy = nullptr;
  /// The rule the last rewrite() applied.
  Rule Fired = Rule::ConstFoldIcmp;
};

} // namespace

const char *llvmmd::getRuleSetName(RuleSet RS) {
  switch (RS) {
  case RS_Boolean:
    return "boolean";
  case RS_PhiSimplify:
    return "phi-simplify";
  case RS_EtaMu:
    return "eta-mu";
  case RS_ConstFold:
    return "const-fold";
  case RS_Canonicalize:
    return "canonicalize";
  case RS_LoadStore:
    return "load-store";
  case RS_Commuting:
    return "commuting";
  case RS_Libc:
    return "libc";
  case RS_FloatFold:
    return "float-fold";
  case RS_GlobalFold:
    return "global-fold";
  default:
    return "?";
  }
}

NormalizeStats &NormalizeStats::operator+=(const NormalizeStats &O) {
  Rewrites += O.Rewrites;
  SharingMerges += O.SharingMerges;
  Iterations += O.Iterations;
  NoProgressFires += O.NoProgressFires;
  NodesVisited += O.NodesVisited;
  SharingExamined += O.SharingExamined;
  BudgetExhausted |= O.BudgetExhausted;
  for (unsigned R = 0; R < NumRewriteRules; ++R)
    RuleFires[R] += O.RuleFires[R];
  return *this;
}

namespace {

/// One round with \p Engine: a rule sweep, then a sharing pass.
NormalizeStats runRound(RuleEngine &Engine, ValueGraph &G,
                        const std::vector<NodeId> &Roots) {
  NormalizeStats Stats;
  Stats.Iterations = 1;
  Engine.sweep(Roots, Stats);
  Stats.SharingMerges = G.maximizeSharing(&Stats.SharingExamined);
  return Stats;
}

} // namespace

NormalizeStats llvmmd::normalizeGraph(ValueGraph &G,
                                      const std::vector<NodeId> &Roots,
                                      const RuleConfig &Config) {
  RuleEngine Engine(G, Config);
  return runRound(Engine, G, Roots);
}

NormalizeStats llvmmd::normalizeToFixpoint(ValueGraph &G,
                                           const std::vector<NodeId> &Roots,
                                           const RuleConfig &Config) {
  auto RootsMerged = [&] {
    return Roots.size() >= 2 &&
           std::all_of(Roots.begin() + 1, Roots.end(), [&](NodeId R) {
             return G.find(R) == G.find(Roots.front());
           });
  };
  NormalizeStats Total;
  RuleEngine Engine(G, Config);
  while (!RootsMerged()) {
    if (Total.Iterations == Config.MaxIterations) {
      Total.BudgetExhausted = true;
      break;
    }
    NormalizeStats Round = runRound(Engine, G, Roots);
    Total += Round;
    if (Round.Rewrites == 0 && Round.SharingMerges == 0)
      break; // a true fixpoint: the next round would see the same graph
  }
  return Total;
}
