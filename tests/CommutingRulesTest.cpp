//===- CommutingRulesTest.cpp - η push-down and unswitch distribution -----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The "commuting" rule set of Figure 6's last configuration: pushing η
// nodes toward their μ nodes, distributing η over pure structure, letting
// readonly calls and loads see through loop memory, and the γ-out-of-μ
// distribution that validates loop unswitching.
//
//===----------------------------------------------------------------------===//

#include "normalize/Normalizer.h"

#include "ir/Context.h"

#include <gtest/gtest.h>

using namespace llvmmd;

namespace {

struct CommuteFixture : ::testing::Test {
  Context Ctx;
  ValueGraph G;
  Type *I32 = Ctx.getInt32Ty();
  Type *I1 = Ctx.getInt1Ty();

  NodeId normalize(std::vector<NodeId> Roots, unsigned Mask) {
    RuleConfig C;
    C.Mask = Mask;
    normalizeToFixpoint(G, Roots, C);
    return G.find(Roots.front());
  }

  /// μ(init, μ+step) — a simple induction stream.
  NodeId makeCounter(NodeId Init, NodeId Step) {
    NodeId Mu = G.makeMu(I32);
    G.setMuOperands(Mu, Init, G.getOp(Opcode::Add, I32, {Mu, Step}));
    return Mu;
  }
};

} // namespace

TEST_F(CommuteFixture, EtaDistributesOverOps) {
  // η(c, μ1 + μ2) must become η(c,μ1) + η(c,μ2): the hoisted form.
  NodeId C = G.getParam(0, I1);
  NodeId Mu1 = makeCounter(G.getConstInt(I32, 0), G.getConstInt(I32, 1));
  NodeId Mu2 = makeCounter(G.getConstInt(I32, 5), G.getConstInt(I32, 2));
  NodeId Sum = G.getOp(Opcode::Add, I32, {Mu1, Mu2});
  NodeId Eta = G.getEta(I32, C, Sum);
  // The already-hoisted twin, as the optimized function would produce it.
  NodeId Twin = G.getOp(Opcode::Add, I32,
                        {G.getEta(I32, C, Mu1), G.getEta(I32, C, Mu2)});
  normalize({Eta, Twin}, RS_Paper);
  EXPECT_EQ(G.find(Eta), G.find(Twin));
}

TEST_F(CommuteFixture, EtaOverLoadDistributes) {
  NodeId C = G.getParam(0, I1);
  NodeId P = G.getParam(1, Ctx.getPtrTy());
  NodeId MemMu = G.makeMu(nullptr);
  NodeId St = G.getStore(G.getParam(2, I32), P, MemMu);
  G.setMuOperands(MemMu, G.getInitialMem(), St);
  NodeId Ld = G.getLoad(I32, P, MemMu);
  NodeId Eta = G.getEta(I32, C, Ld);
  NodeId Twin = G.getLoad(I32, G.getEta(Ctx.getPtrTy(), C, P),
                          G.getEta(nullptr, C, MemMu));
  normalize({Eta, Twin}, RS_Paper);
  EXPECT_EQ(G.find(Eta), G.find(Twin));
}

TEST_F(CommuteFixture, LoadSeesThroughLoopWithDisjointStores) {
  // load(g, μ_mem) where the loop only stores to a non-escaping local:
  // the load reads the loop's initial memory (mirrors LICM).
  NodeId Mem0 = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId Local = G.getAlloc(One, Mem0, 4);
  NodeId MemA = G.getAllocMem(Local);
  NodeId Glob = G.getGlobal("g", false, Ctx.getPtrTy());
  NodeId MemMu = G.makeMu(nullptr);
  NodeId St = G.getStore(G.getParam(0, I32), Local, MemMu);
  G.setMuOperands(MemMu, MemA, St);
  NodeId Ld = G.getLoad(I32, Glob, MemMu);
  NodeId Hoisted = G.getLoad(I32, Glob, MemA);
  EXPECT_NE(G.find(Ld), G.find(Hoisted));
  normalize({Ld, Hoisted}, RS_Paper);
  EXPECT_EQ(G.find(Ld), G.find(Hoisted));
}

TEST_F(CommuteFixture, LoadBlockedByAliasingStoreInLoop) {
  NodeId Mem0 = G.getInitialMem();
  NodeId Glob = G.getGlobal("g", false, Ctx.getPtrTy());
  NodeId MemMu = G.makeMu(nullptr);
  NodeId St = G.getStore(G.getParam(0, I32), Glob, MemMu);
  G.setMuOperands(MemMu, Mem0, St);
  NodeId Ld = G.getLoad(I32, Glob, MemMu);
  normalize({Ld}, RS_Paper);
  // The store targets the loaded location: no hoisting.
  EXPECT_EQ(G.node(G.find(Ld)).Kind, NodeKind::Load);
  EXPECT_EQ(G.node(G.operand(G.find(Ld), 1)).Kind, NodeKind::Mu);
}

TEST_F(CommuteFixture, ReadOnlyCallSeesThroughLoop) {
  // strlen(p, μ_mem) with only local stores in the loop: with RS_Libc the
  // call reads the initial memory (validating LICM's strlen hoist);
  // without it, the alarm stays — the paper's Figure 7 story.
  NodeId Mem0 = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId Local = G.getAlloc(One, Mem0, 4);
  NodeId MemA = G.getAllocMem(Local);
  NodeId P = G.getParam(0, Ctx.getPtrTy());
  NodeId MemMu = G.makeMu(nullptr);
  NodeId St = G.getStore(G.getParam(1, I32), Local, MemMu);
  G.setMuOperands(MemMu, MemA, St);
  NodeId Call = G.getCall("strlen", MemoryEffect::ReadOnly,
                          Ctx.getInt64Ty(), {P, MemMu});
  NodeId Hoisted = G.getCall("strlen", MemoryEffect::ReadOnly,
                             Ctx.getInt64Ty(), {P, MemA});
  NodeId CallRoot = Call, HoistedRoot = Hoisted;
  normalize({CallRoot, HoistedRoot}, RS_Paper);
  EXPECT_NE(G.find(Call), G.find(Hoisted)) << "needs libc knowledge";
  normalize({CallRoot, HoistedRoot}, RS_Paper | RS_Libc);
  EXPECT_EQ(G.find(Call), G.find(Hoisted));
}

TEST_F(CommuteFixture, UnswitchDistributesInvariantGamma) {
  // fi: η(e, μ(0, γ(c, μ+1, μ-1)))  — branch inside the loop.
  // fo: γ(c, η(e_t, μ_t(0, μ_t+1)), ¬c, η(e_f, μ_f(0, μ_f-1))).
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, G.getConstBool(I1, true)});
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId One = G.getConstInt(I32, 1);
  NodeId N = G.getParam(1, I32);

  // Original: one loop with the γ inside.
  NodeId Mu = G.makeMu(I32);
  NodeId Inc = G.getOp(Opcode::Add, I32, {Mu, One});
  NodeId Dec = G.getOp(Opcode::Sub, I32, {Mu, One});
  G.setMuOperands(Mu, Zero, G.getGamma(I32, {{C, Inc}, {NotC, Dec}}));
  NodeId Guard = G.getOp(Opcode::ICmp, I1, {Mu, N},
                         static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Fi = G.getEta(I32, Guard, Mu);

  // Optimized: two specialized loops under the invariant condition.
  NodeId MuT = G.makeMu(I32);
  G.setMuOperands(MuT, Zero, G.getOp(Opcode::Add, I32, {MuT, One}));
  NodeId GuardT = G.getOp(Opcode::ICmp, I1, {MuT, N},
                          static_cast<uint8_t>(ICmpPred::SLT));
  NodeId MuF = G.makeMu(I32);
  G.setMuOperands(MuF, Zero, G.getOp(Opcode::Sub, I32, {MuF, One}));
  NodeId GuardF = G.getOp(Opcode::ICmp, I1, {MuF, N},
                          static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Fo = G.getGamma(I32, {{C, G.getEta(I32, GuardT, MuT)},
                               {NotC, G.getEta(I32, GuardF, MuF)}});

  EXPECT_NE(G.find(Fi), G.find(Fo));
  normalize({Fi, Fo}, RS_Paper);
  EXPECT_EQ(G.find(Fi), G.find(Fo))
      << "the unswitch distribution rule must reconcile the two shapes";
}

TEST_F(CommuteFixture, UnswitchLeavesVariantGammasAlone) {
  // A γ whose condition depends on the loop must not be distributed.
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId One = G.getConstInt(I32, 1);
  NodeId Mu = G.makeMu(I32);
  NodeId Odd = G.getOp(Opcode::ICmp, I1, {Mu, Zero},
                       static_cast<uint8_t>(ICmpPred::SGT));
  NodeId NotOdd = G.getOp(Opcode::Xor, I1, {Odd, G.getConstBool(I1, true)});
  NodeId Inc = G.getOp(Opcode::Add, I32, {Mu, One});
  NodeId Dec = G.getOp(Opcode::Sub, I32, {Mu, One});
  G.setMuOperands(Mu, Zero, G.getGamma(I32, {{Odd, Inc}, {NotOdd, Dec}}));
  NodeId Guard = G.getOp(Opcode::ICmp, I1, {Mu, G.getParam(0, I32)},
                         static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Fi = G.getEta(I32, Guard, Mu);
  normalize({Fi}, RS_Paper);
  // Still an η over a μ (possibly reorganized, but not a γ at the top).
  EXPECT_NE(G.node(G.find(Fi)).Kind, NodeKind::Gamma);
}

TEST_F(CommuteFixture, CommutingIsOptIn) {
  // Without RS_Commuting the unswitched shapes stay apart.
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, G.getConstBool(I1, true)});
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId One = G.getConstInt(I32, 1);
  NodeId Mu = G.makeMu(I32);
  NodeId Inc = G.getOp(Opcode::Add, I32, {Mu, One});
  NodeId Dec = G.getOp(Opcode::Sub, I32, {Mu, One});
  G.setMuOperands(Mu, Zero, G.getGamma(I32, {{C, Inc}, {NotC, Dec}}));
  NodeId Guard = G.getOp(Opcode::ICmp, I1, {Mu, G.getParam(1, I32)},
                         static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Fi = G.getEta(I32, Guard, Mu);
  NodeId MuT = G.makeMu(I32);
  G.setMuOperands(MuT, Zero, G.getOp(Opcode::Add, I32, {MuT, One}));
  NodeId GuardT = G.getOp(Opcode::ICmp, I1, {MuT, G.getParam(1, I32)},
                          static_cast<uint8_t>(ICmpPred::SLT));
  NodeId MuF = G.makeMu(I32);
  G.setMuOperands(MuF, Zero, G.getOp(Opcode::Sub, I32, {MuF, One}));
  NodeId GuardF = G.getOp(Opcode::ICmp, I1, {MuF, G.getParam(1, I32)},
                          static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Fo = G.getGamma(I32, {{C, G.getEta(I32, GuardT, MuT)},
                               {NotC, G.getEta(I32, GuardF, MuF)}});
  unsigned NoCommute = RS_Paper & ~RS_Commuting;
  normalize({Fi, Fo}, NoCommute);
  EXPECT_NE(G.find(Fi), G.find(Fo));
}
