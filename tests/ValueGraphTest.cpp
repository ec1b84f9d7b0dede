//===- ValueGraphTest.cpp - Hash-consed value graph tests ----------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "vg/ValueGraph.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "normalize/Normalizer.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "vg/GraphBuilder.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace llvmmd;

namespace {

struct GraphFixture : ::testing::Test {
  Context Ctx;
  ValueGraph G;
  Type *I32 = Ctx.getInt32Ty();
  Type *I1 = Ctx.getInt1Ty();
};

} // namespace

TEST_F(GraphFixture, LeavesAreInterned) {
  EXPECT_EQ(G.getConstInt(I32, 4), G.getConstInt(I32, 4));
  EXPECT_NE(G.getConstInt(I32, 4), G.getConstInt(I32, 5));
  EXPECT_NE(G.getConstInt(I32, 4), G.getConstInt(Ctx.getInt64Ty(), 4));
  EXPECT_EQ(G.getParam(0, I32), G.getParam(0, I32));
  EXPECT_NE(G.getParam(0, I32), G.getParam(1, I32));
  EXPECT_EQ(G.getInitialMem(), G.getInitialMem());
  EXPECT_EQ(G.getGlobal("g", true, Ctx.getPtrTy()),
            G.getGlobal("g", true, Ctx.getPtrTy()));
}

TEST_F(GraphFixture, OpsAreHashConsed) {
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, B});
  NodeId Y = G.getOp(Opcode::Add, I32, {A, B});
  EXPECT_EQ(X, Y);
  // Commutative ops canonicalize operand order on construction.
  NodeId Z = G.getOp(Opcode::Add, I32, {B, A});
  EXPECT_EQ(X, Z);
  // Non-commutative ops do not.
  EXPECT_NE(G.getOp(Opcode::Sub, I32, {A, B}),
            G.getOp(Opcode::Sub, I32, {B, A}));
  // Predicate is part of the identity.
  EXPECT_NE(G.getOp(Opcode::ICmp, I1, {A, B},
                    static_cast<uint8_t>(ICmpPred::SLT)),
            G.getOp(Opcode::ICmp, I1, {A, B},
                    static_cast<uint8_t>(ICmpPred::SLE)));
}

TEST_F(GraphFixture, GammaBranchesSortCanonically) {
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, G.getConstBool(I1, true)});
  NodeId V1 = G.getConstInt(I32, 1), V2 = G.getConstInt(I32, 2);
  NodeId A = G.getGamma(I32, {{C, V1}, {NotC, V2}});
  NodeId B = G.getGamma(I32, {{NotC, V2}, {C, V1}});
  EXPECT_EQ(A, B);
}

TEST_F(GraphFixture, UnionFindMerging) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  NodeId Y = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 2)});
  EXPECT_NE(G.find(X), G.find(Y));
  G.mergeInto(X, Y);
  EXPECT_EQ(G.find(X), G.find(Y));
  EXPECT_EQ(G.find(X), Y);
  EXPECT_EQ(G.getMergeCount(), 1u);
}

TEST_F(GraphFixture, CongruenceClosesUpward) {
  // Merge the leaves of two structurally parallel expressions; the parents
  // must merge in the sharing pass.
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId XA = G.getOp(Opcode::Mul, I32, {A, G.getConstInt(I32, 3)});
  NodeId XB = G.getOp(Opcode::Mul, I32, {B, G.getConstInt(I32, 3)});
  NodeId PA = G.getOp(Opcode::Sub, I32, {XA, A});
  NodeId PB = G.getOp(Opcode::Sub, I32, {XB, B});
  EXPECT_NE(G.find(PA), G.find(PB));
  G.mergeInto(A, B);
  G.maximizeSharing();
  EXPECT_EQ(G.find(PA), G.find(PB));
  EXPECT_EQ(G.find(XA), G.find(XB));

  // Two parallel 80-level chains over leaves merged just before the call:
  // the tops must merge in that one call, not one level per call.
  NodeId LA = G.getParam(2, I32), LB = G.getParam(3, I32);
  NodeId TopA = LA, TopB = LB;
  for (int Level = 0; Level < 80; ++Level) {
    NodeId K = G.getConstInt(I32, Level);
    TopA = G.getOp(Level % 2 ? Opcode::Sub : Opcode::Xor, I32, {TopA, K});
    TopB = G.getOp(Level % 2 ? Opcode::Sub : Opcode::Xor, I32, {TopB, K});
  }
  G.mergeInto(LA, LB);
  EXPECT_EQ(G.maximizeSharing(), 80u);
  EXPECT_EQ(G.find(TopA), G.find(TopB));
  EXPECT_EQ(G.maximizeSharing(), 0u) << "one call reaches the fixpoint";
}

TEST_F(GraphFixture, MuUnificationMergesEqualLoops) {
  // Two μ for the same stream: μ(0, μ+1).
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, One}));
  EXPECT_NE(G.find(M1), G.find(M2));
  G.maximizeSharing();
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, MuUnificationRespectsDifferences) {
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId One = G.getConstInt(I32, 1), Two = G.getConstInt(I32, 2);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, Two}));
  G.maximizeSharing();
  EXPECT_NE(G.find(M1), G.find(M2)) << "different strides must stay apart";
  // Different initial values likewise.
  NodeId M3 = G.makeMu(I32);
  G.setMuOperands(M3, One, G.getOp(Opcode::Add, I32, {M3, One}));
  G.maximizeSharing();
  EXPECT_NE(G.find(M1), G.find(M3));

  // A difference buried four levels below the μ: every level above it has
  // the same shape, so only a refinement that re-examines the users of a
  // split class can keep the two cycles apart.
  auto BuriedCycle = [&](NodeId Leaf) {
    NodeId M = G.makeMu(I32);
    NodeId Body = G.getOp(Opcode::Mul, I32, {M, Leaf});
    Body = G.getOp(Opcode::Sub, I32, {Body, Two});
    Body = G.getOp(Opcode::Xor, I32, {Body, Two});
    Body = G.getOp(Opcode::Sub, I32, {Body, One});
    G.setMuOperands(M, Zero, Body);
    return std::make_pair(M, Body);
  };
  auto [M4, Top4] = BuriedCycle(G.getParam(0, I32));
  auto [M5, Top5] = BuriedCycle(G.getParam(1, I32));
  auto [M6, Top6] = BuriedCycle(G.getParam(0, I32));
  G.maximizeSharing();
  EXPECT_NE(G.find(M4), G.find(M5)) << "buried difference must keep apart";
  EXPECT_NE(G.find(Top4), G.find(Top5));
  EXPECT_EQ(G.find(M4), G.find(M6));
  EXPECT_EQ(G.find(Top4), G.find(Top6));
}

TEST_F(GraphFixture, MuUnificationBacktracksCommutativeOrder) {
  // μ(0, 1+μ) vs μ(0, μ+1) with operand orders that disagree positionally.
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  NodeId Add1 = G.getOp(Opcode::Add, I32, {One, M1});
  G.setMuOperands(M1, Zero, Add1);
  NodeId M2 = G.makeMu(I32);
  NodeId Add2 = G.getOp(Opcode::Add, I32, {M2, One});
  G.setMuOperands(M2, Zero, Add2);
  G.maximizeSharing();
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionRefinementMergesCycles) {
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, One}));
  G.maximizeSharing();
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionKeepsDistinctCyclesApart) {
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId Two = G.getConstInt(I32, 2);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Mul, I32, {M2, Two}));
  G.maximizeSharing();
  EXPECT_NE(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionSortsCommutativeOperandsByClass) {
  // Node ids μ1 < c < μ2, so add(μ1,c) and add(c,μ2) store their operands
  // in opposite class orders; the refinement signature must not care.
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId M1 = G.makeMu(I32);
  NodeId C = G.getConstInt(I32, 1);
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, C}));
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {C, M2}));
  G.maximizeSharing();
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionSortsGammaBranchesByClass) {
  // Loop-dependent conditions on either side of a shared one (by node id)
  // give the two γs opposite branch orders; the γs sit inside the cycles,
  // so only the refinement itself can merge them.
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId Ten = G.getConstInt(I32, 10);
  auto Slt = static_cast<uint8_t>(ICmpPred::SLT);
  NodeId M1 = G.makeMu(I32);
  NodeId Step1 = G.getOp(Opcode::Add, I32, {M1, One});
  NodeId Cmp1 = G.getOp(Opcode::ICmp, I1, {M1, Ten}, Slt);
  NodeId Q = G.getParam(0, I1);
  NodeId M2 = G.makeMu(I32);
  NodeId Step2 = G.getOp(Opcode::Add, I32, {M2, One});
  NodeId Cmp2 = G.getOp(Opcode::ICmp, I1, {M2, Ten}, Slt);
  G.setMuOperands(M1, Zero, G.getGamma(I32, {{Cmp1, Step1}, {Q, M1}}));
  G.setMuOperands(M2, Zero, G.getGamma(I32, {{Cmp2, Step2}, {Q, M2}}));
  G.maximizeSharing();
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, AliasOnGraphPointers) {
  NodeId Mem = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId AllocA = G.getAlloc(One, Mem, 4);
  NodeId MemA = G.getAllocMem(AllocA);
  NodeId AllocB = G.getAlloc(One, MemA, 4);
  EXPECT_NE(G.find(AllocA), G.find(AllocB))
      << "memory threading keeps allocations distinct";
  EXPECT_EQ(G.aliasPointers(AllocA, AllocB, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(AllocA, AllocA, 4, 4), 2);
  // GEPs at distinct constant offsets.
  NodeId GA = G.getOp(Opcode::GEP, Ctx.getPtrTy(),
                      {AllocA, G.getConstInt(Ctx.getInt64Ty(), 1)}, 0, 4);
  NodeId GB = G.getOp(Opcode::GEP, Ctx.getPtrTy(),
                      {AllocA, G.getConstInt(Ctx.getInt64Ty(), 2)}, 0, 4);
  EXPECT_EQ(G.aliasPointers(GA, GB, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(GA, GB, 8, 4), 1); // overlapping footprint
  // Distinct globals never alias; param vs global may.
  NodeId GlobX = G.getGlobal("x", false, Ctx.getPtrTy());
  NodeId GlobY = G.getGlobal("y", false, Ctx.getPtrTy());
  NodeId Param = G.getParam(0, Ctx.getPtrTy());
  EXPECT_EQ(G.aliasPointers(GlobX, GlobY, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(GlobX, Param, 4, 4), 1);
  // Non-escaping alloca vs param: no alias.
  EXPECT_EQ(G.aliasPointers(AllocA, Param, 4, 4), 0);
}

TEST_F(GraphFixture, EscapeDetection) {
  NodeId Mem = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId Alloc = G.getAlloc(One, Mem, 4);
  EXPECT_TRUE(G.isNonEscapingAlloc(Alloc));
  // Storing the pointer itself escapes it.
  NodeId Other = G.getAlloc(One, G.getAllocMem(Alloc), 8);
  G.getStore(Alloc, Other, G.getAllocMem(Alloc));
  EXPECT_FALSE(G.isNonEscapingAlloc(Alloc));

  // Each case below gets an allocation of its own (allocations intern by
  // element size, so a fresh size is a fresh node).
  Type *Ptr = Ctx.getPtrTy();
  Type *I64 = Ctx.getInt64Ty();
  unsigned NextSize = 100;
  auto Fresh = [&] { return G.getAlloc(One, Mem, NextSize++); };
  auto Escapes = [&](NodeId A) { return !G.isNonEscapingAlloc(A); };
  auto Call = [&](NodeId Arg) {
    return G.getCall("publish", MemoryEffect::ReadWrite, nullptr, {Arg, Mem});
  };
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, G.getConstBool(I1, true)});
  NodeId Null = G.getNull(Ptr);
  NodeId Val = G.getConstInt(I32, 7);

  // Derivation: a pointer derived through a GEP base, a γ value slot, μ or
  // η slot 1 is the allocation. Used only as an address it does not
  // escape; published, it does.
  using Derivation = std::function<NodeId(NodeId)>;
  std::vector<std::pair<const char *, Derivation>> Derivations = {
      {"gep base",
       [&](NodeId A) {
         return G.getOp(Opcode::GEP, Ptr, {A, G.getConstInt(I64, 2)}, 0, 4);
       }},
      {"gamma value",
       [&](NodeId A) { return G.getGamma(Ptr, {{C, A}, {NotC, Null}}); }},
      {"mu",
       [&](NodeId A) {
         NodeId M = G.makeMu(Ptr);
         G.setMuOperands(M, A, M);
         return M;
       }},
      {"eta value", [&](NodeId A) { return G.getEta(Ptr, C, A); }},
  };
  for (auto &[Name, Derive] : Derivations) {
    NodeId Kept = Fresh();
    NodeId KeptPtr = Derive(Kept);
    G.getLoad(I32, KeptPtr, Mem);
    G.getStore(Val, KeptPtr, Mem);
    EXPECT_FALSE(Escapes(Kept)) << Name << " used as an address";
    NodeId Published = Fresh();
    Call(Derive(Published));
    EXPECT_TRUE(Escapes(Published)) << Name << " passed to a call";
  }
  // A γ condition slot or an η stay condition is not a derivation: the
  // result is not the pointer, so publishing the result publishes nothing.
  NodeId InCond = Fresh();
  Call(G.getGamma(Ptr, {{InCond, Null}, {C, Null}}));
  Call(G.getEta(Ptr, InCond, Null));
  EXPECT_FALSE(Escapes(InCond));

  // No escape: address comparisons and load/store addresses.
  NodeId Compared = Fresh();
  NodeId Cmp = G.getOp(Opcode::ICmp, I1, {Compared, Null},
                       static_cast<uint8_t>(ICmpPred::EQ));
  Call(Cmp);
  EXPECT_FALSE(Escapes(Compared)) << "icmp does not derive the pointer";
  NodeId Addressed = Fresh();
  G.getLoad(I32, Addressed, Mem);
  G.getStore(Val, Addressed, Mem);
  EXPECT_FALSE(Escapes(Addressed));

  // Escape: a call argument, a returned value, a stored value, and a
  // load's memory slot.
  NodeId Passed = Fresh();
  Call(Passed);
  EXPECT_TRUE(Escapes(Passed)) << "call";
  NodeId Returned = Fresh();
  G.getRet(Returned, Mem);
  EXPECT_TRUE(Escapes(Returned)) << "ret";
  NodeId Stored = Fresh();
  G.getStore(Stored, G.getParam(1, Ptr), Mem);
  EXPECT_TRUE(Escapes(Stored)) << "stored value";
  NodeId AsMemory = Fresh();
  G.getLoad(I32, G.getParam(1, Ptr), AsMemory);
  EXPECT_TRUE(Escapes(AsMemory)) << "load memory slot";

  // Every root counts as a user, live or not: a call that the function's
  // return does not reach still publishes the pointer.
  NodeId Unreached = Fresh();
  NodeId Ret = G.getRet(G.getLoad(I32, Unreached, Mem), Mem);
  Call(Unreached);
  EXPECT_EQ(G.dump({Ret}).find("call"), std::string::npos);
  EXPECT_TRUE(Escapes(Unreached));

  // A user merged away is no longer a user.
  NodeId MergedAway = Fresh();
  NodeId Publish = Call(MergedAway);
  EXPECT_TRUE(Escapes(MergedAway));
  G.mergeInto(Publish, Call(G.getParam(1, Ptr)));
  EXPECT_FALSE(Escapes(MergedAway));
}

TEST_F(GraphFixture, ConeContainsMu) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  EXPECT_FALSE(G.coneContainsMu(X));
  NodeId M = G.makeMu(I32);
  G.setMuOperands(M, A, G.getOp(Opcode::Add, I32, {M, X}));
  NodeId Y = G.getOp(Opcode::Mul, I32, {M, A});
  EXPECT_TRUE(G.coneContainsMu(Y));
  EXPECT_TRUE(G.coneContainsMu(M));
}

TEST_F(GraphFixture, CountRootsAndDump) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  size_t Before = G.countRoots();
  G.mergeInto(X, A);
  EXPECT_EQ(G.countRoots(), Before - 1);
  std::string Dump = G.dump({A});
  EXPECT_NE(Dump.find("param"), std::string::npos);
}

TEST_F(GraphFixture, DumpDotRendersCone) {
  NodeId C = G.getParam(0, I1);
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, G.getConstInt(I32, 0),
                  G.getOp(Opcode::Add, I32, {Mu, G.getConstInt(I32, 1)}));
  NodeId Eta = G.getEta(I32, C, Mu);
  std::string Dot = G.dumpDot({Eta});
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("\xce\xbc"), std::string::npos); // μ label
  EXPECT_NE(Dot.find("\xce\xb7"), std::string::npos); // η label
  EXPECT_NE(Dot.find("label=\"i\""), std::string::npos);
  // Only the cone is rendered: an unrelated node stays out.
  NodeId Unrelated = G.getOp(Opcode::Mul, I32, {G.getParam(2, I32),
                                                G.getParam(3, I32)});
  (void)Unrelated;
  std::string Dot2 = G.dumpDot({Eta});
  EXPECT_EQ(Dot2.find("mul"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Use lists
//===----------------------------------------------------------------------===//

namespace {

/// The distinct users forEachUser reports for \p Id, ascending.
std::vector<NodeId> listedUsers(const ValueGraph &G, NodeId Id) {
  std::vector<NodeId> Users;
  G.forEachUser(Id, [&](NodeId U) { Users.push_back(U); });
  std::sort(Users.begin(), Users.end());
  Users.erase(std::unique(Users.begin(), Users.end()), Users.end());
  return Users;
}

/// Every root's users by a scan of all roots' operands, ascending.
std::vector<std::vector<NodeId>> scannedUsers(const ValueGraph &G) {
  std::vector<std::vector<NodeId>> Users(G.size());
  for (NodeId I = 0; I < G.size(); ++I) {
    if (G.find(I) != I)
      continue;
    for (NodeId Op : G.node(I).Ops)
      if (Op != InvalidNode &&
          (Users[G.find(Op)].empty() || Users[G.find(Op)].back() != I))
        Users[G.find(Op)].push_back(I);
  }
  return Users;
}

/// isNonEscapingAlloc restated as a fixpoint over every root's operand
/// slots, without use lists.
bool scannedNonEscaping(const ValueGraph &G, NodeId Alloc) {
  std::vector<char> Derived(G.size(), 0);
  Derived[G.find(Alloc)] = 1;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (NodeId I = 0; I < G.size(); ++I) {
      if (G.find(I) != I)
        continue;
      const Node &N = G.node(I);
      for (unsigned K = 0; K < N.Ops.size(); ++K) {
        if (N.Ops[K] == InvalidNode || !Derived[G.find(N.Ops[K])])
          continue;
        bool Derives = false;
        switch (N.Kind) {
        case NodeKind::Load:
          if (K != 0)
            return false;
          break;
        case NodeKind::Store:
          if (K != 1)
            return false;
          break;
        case NodeKind::AllocMem:
          break;
        case NodeKind::Op:
          if (N.Op == Opcode::GEP && K == 0)
            Derives = true;
          else if (N.Op != Opcode::ICmp)
            return false;
          break;
        case NodeKind::Gamma:
          Derives = K % 2 == 1;
          break;
        case NodeKind::Mu:
          Derives = true;
          break;
        case NodeKind::Eta:
          Derives = K == 1;
          break;
        default:
          return false;
        }
        if (Derives && !Derived[I])
          Derived[I] = Changed = true;
      }
    }
  }
  return true;
}

} // namespace

TEST_F(GraphFixture, UseListsSpliceOnMerge) {
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId NegA = G.getOp(Opcode::Sub, I32, {G.getConstInt(I32, 0), A});
  NodeId NegB = G.getOp(Opcode::Sub, I32, {G.getConstInt(I32, 0), B});
  NodeId SumB = G.getOp(Opcode::Add, I32, {B, G.getConstInt(I32, 1)});
  EXPECT_EQ(listedUsers(G, A), std::vector<NodeId>{NegA});
  G.mergeInto(B, A);
  // B's users now use A's class, and the list of B's old root is A's.
  EXPECT_EQ(listedUsers(G, A), (std::vector<NodeId>{NegA, NegB, SumB}));
  EXPECT_EQ(listedUsers(G, B), listedUsers(G, A));
  // A user merged away is no longer listed; its class's root is.
  G.mergeInto(NegB, NegA);
  EXPECT_EQ(listedUsers(G, A), (std::vector<NodeId>{NegA, SumB}));
}

TEST_F(GraphFixture, UseListsTakeMuOperands) {
  NodeId Init = G.getParam(0, I32);
  NodeId Mu = G.makeMu(I32);
  EXPECT_TRUE(listedUsers(G, Init).empty()) << "an unset μ uses nothing";
  NodeId Next = G.getOp(Opcode::Add, I32, {Mu, G.getConstInt(I32, 1)});
  G.setMuOperands(Mu, Init, Next);
  EXPECT_EQ(listedUsers(G, Init), std::vector<NodeId>{Mu});
  EXPECT_EQ(listedUsers(G, Next), std::vector<NodeId>{Mu});
  EXPECT_EQ(listedUsers(G, Mu), std::vector<NodeId>{Next});
}

TEST_F(GraphFixture, UseListsNameAUserOfOneClassInTwoSlots) {
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId Twice = G.getOp(Opcode::Mul, I32, {A, A});
  NodeId Both = G.getOp(Opcode::Sub, I32, {A, B});
  G.mergeInto(B, A);
  std::vector<NodeId> Seen;
  G.forEachUser(A, [&](NodeId U) { Seen.push_back(U); });
  EXPECT_EQ(std::count(Seen.begin(), Seen.end(), Twice), 2);
  EXPECT_EQ(std::count(Seen.begin(), Seen.end(), Both), 2);
  EXPECT_EQ(listedUsers(G, A), (std::vector<NodeId>{Twice, Both}));
  // The escape walk follows both slots of a two-slot user.
  NodeId Mem = G.getInitialMem();
  NodeId Alloc = G.getAlloc(G.getConstInt(Ctx.getInt64Ty(), 1), Mem, 4);
  G.getStore(Alloc, Alloc, Mem);
  EXPECT_FALSE(G.isNonEscapingAlloc(Alloc)) << "stored as its own value";
}

TEST(UseListSuiteTest, ListsAndEscapesMatchAScanOnEverySuitePair) {
  unsigned Answers[2] = {0, 0}; // escaping, non-escaping
  for (const BenchmarkProfile &P : getPaperSuite()) {
    Context Ctx;
    auto Orig = generateBenchmark(Ctx, P);
    auto Opt = cloneModule(*Orig);
    PassManager PM;
    PM.parsePipeline(getPaperPipeline());
    PM.run(*Opt);
    for (unsigned Mask : {unsigned(RS_Paper), unsigned(RS_All)}) {
      RuleConfig RC;
      RC.Mask = Mask;
      RC.M = Orig.get();
      unsigned Allocs = 0;
      for (const Function *F : Orig->definedFunctions()) {
        const Function *FO = Opt->getFunction(F->getName());
        if (!FO || fingerprintFunction(*F) == fingerprintFunction(*FO))
          continue;
        ValueGraph G;
        BuildResult A = buildValueGraph(G, *F);
        BuildResult B = buildValueGraph(G, *FO);
        if (!A.Supported || !B.Supported)
          continue;
        normalizeToFixpoint(G, {A.Ret, B.Ret}, RC);
        SCOPED_TRACE(P.Name + " " + F->getName() +
                     (Mask == RS_All ? " RS_All" : " RS_Paper"));
        std::vector<std::vector<NodeId>> Want = scannedUsers(G);
        for (NodeId I = 0; I < G.size(); ++I) {
          if (G.find(I) != I)
            continue;
          ASSERT_EQ(listedUsers(G, I), Want[I]) << "users of n" << I;
          if (G.node(I).Kind == NodeKind::Alloc) {
            ++Allocs;
            bool NonEscaping = G.isNonEscapingAlloc(I);
            EXPECT_EQ(NonEscaping, scannedNonEscaping(G, I)) << "alloc n" << I;
            ++Answers[NonEscaping];
          }
        }
      }
      EXPECT_GT(Allocs, 0u) << P.Name << " exercises the escape query";
    }
  }
  EXPECT_GT(Answers[0], 0u);
  EXPECT_GT(Answers[1], 0u);
}
