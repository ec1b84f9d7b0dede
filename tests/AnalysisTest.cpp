//===- AnalysisTest.cpp - CFG/dominator/loop/alias analysis tests -------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/FunctionAnalyses.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloning.h"
#include "opt/Pass.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

BasicBlock *blockNamed(Function *F, const std::string &Name) {
  for (const auto &BB : F->blocks())
    if (BB->getName() == Name)
      return BB;
  return nullptr;
}

const char *DiamondSrc = R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  ret i32 0
}
)";

const char *LoopSrc = R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %x
body:
  br label %latch
latch:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %i
}
)";

const char *NestedLoopSrc = R"(
define void @f(i32 %n) {
entry:
  br label %oh
oh:
  %i = phi i32 [ 0, %entry ], [ %i2, %ol ]
  %oc = icmp slt i32 %i, %n
  br i1 %oc, label %ih, label %done
ih:
  %j = phi i32 [ 0, %oh ], [ %j2, %ib ]
  %ic = icmp slt i32 %j, 4
  br i1 %ic, label %ib, label %ol
ib:
  %j2 = add i32 %j, 1
  br label %ih
ol:
  %i2 = add i32 %i, 1
  br label %oh
done:
  ret void
}
)";

} // namespace

TEST(CFG, RPOOrder) {
  Context Ctx;
  auto M = parseOrDie(Ctx, DiamondSrc);
  Function *F = M->getFunction("f");
  auto RPO = computeRPO(*F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front()->getName(), "entry");
  EXPECT_EQ(RPO.back()->getName(), "j");
}

TEST(CFG, UnreachableBlocksExcluded) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define void @f() {
entry:
  ret void
island:
  br label %island
}
)");
  EXPECT_EQ(computeRPO(*M->getFunction("f")).size(), 1u);
  EXPECT_EQ(reachableBlocks(*M->getFunction("f")).size(), 1u);
}

TEST(Dominators, Diamond) {
  Context Ctx;
  auto M = parseOrDie(Ctx, DiamondSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *T = blockNamed(F, "t");
  BasicBlock *E = blockNamed(F, "e");
  BasicBlock *J = blockNamed(F, "j");
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
  EXPECT_EQ(DT.getIDom(T), Entry);
  EXPECT_EQ(DT.getIDom(E), Entry);
  EXPECT_EQ(DT.getIDom(J), Entry);
  EXPECT_TRUE(DT.dominates(Entry, J));
  EXPECT_TRUE(DT.dominates(J, J));
  EXPECT_FALSE(DT.dominates(T, J));
  EXPECT_FALSE(DT.properlyDominates(J, J));
}

TEST(Dominators, LoopHeaderDominatesBody) {
  Context Ctx;
  auto M = parseOrDie(Ctx, LoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  EXPECT_TRUE(DT.dominates(blockNamed(F, "h"), blockNamed(F, "latch")));
  EXPECT_TRUE(DT.dominates(blockNamed(F, "h"), blockNamed(F, "x")));
  EXPECT_FALSE(DT.dominates(blockNamed(F, "body"), blockNamed(F, "x")));
  // Preorder visits idoms before children.
  auto Pre = DT.preorder();
  EXPECT_EQ(Pre.front()->getName(), "entry");
}

namespace {

/// Blocks reachable from \p F's entry without passing through \p Removed
/// (null removes nothing; removing the entry leaves nothing reachable).
std::set<const BasicBlock *> reachableWithout(const Function &F,
                                              const BasicBlock *Removed) {
  std::set<const BasicBlock *> Seen;
  std::vector<BasicBlock *> Work;
  if (F.getEntryBlock() != Removed)
    Work.push_back(F.getEntryBlock());
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!Seen.insert(BB).second)
      continue;
    for (BasicBlock *Succ : BB->successors())
      if (Succ != Removed)
        Work.push_back(Succ);
  }
  return Seen;
}

/// The blocks of a dominator-tree range, as a vector to compare.
std::vector<BasicBlock *> blocksOf(DominatorTree::BlockRange R) {
  return std::vector<BasicBlock *>(R.begin(), R.end());
}

/// Checks predecessors(), getIDom, getChildren and dominates on every
/// block pair of
/// \p F against the definitions: predecessors are the blocks whose
/// terminator names the block, in function order, and the dominator tree's
/// are the reachable ones among them; A dominates B when B is
/// reachable and removing A makes it unreachable (or A == B); the idom is
/// the strict dominator every other strict dominator dominates; a block's
/// children are the blocks whose idom it is, in RPO order.
void expectDominatorsMatchReference(const Function &F) {
  SCOPED_TRACE(F.getName());
  const auto &Blocks = F.blocks();
  std::set<const BasicBlock *> Reachable = reachableWithout(F, nullptr);
  std::map<const BasicBlock *, std::set<const BasicBlock *>> Cut;
  for (const BasicBlock *A : Blocks)
    Cut[A] = reachableWithout(F, A);
  auto RefDominates = [&](const BasicBlock *A, const BasicBlock *B) {
    return Reachable.count(A) && Reachable.count(B) &&
           (A == B || !Cut[A].count(B));
  };

  DominatorTree DT(F);
  std::map<const BasicBlock *, const BasicBlock *> WantIDomOf;
  for (const BasicBlock *B : Blocks) {
    std::vector<BasicBlock *> WantPreds;
    for (BasicBlock *P : Blocks) {
      auto Succs = P->successors();
      if (std::find(Succs.begin(), Succs.end(), B) != Succs.end())
        WantPreds.push_back(P);
    }
    EXPECT_EQ(B->predecessors(), WantPreds) << B->getName();
    EXPECT_EQ(DT.isReachable(B), Reachable.count(B) != 0) << B->getName();
    std::vector<BasicBlock *> WantReachablePreds;
    if (Reachable.count(B))
      for (BasicBlock *P : WantPreds)
        if (Reachable.count(P))
          WantReachablePreds.push_back(P);
    EXPECT_EQ(blocksOf(DT.predecessors(B)), WantReachablePreds)
        << B->getName();

    const BasicBlock *WantIDom = nullptr;
    for (const BasicBlock *D : Blocks) {
      if (D == B || !RefDominates(D, B))
        continue;
      bool Immediate = true;
      for (const BasicBlock *O : Blocks)
        if (O != B && O != D && RefDominates(O, B) && !RefDominates(O, D))
          Immediate = false;
      if (Immediate)
        WantIDom = D;
    }
    EXPECT_EQ(DT.getIDom(B), WantIDom) << B->getName();
    WantIDomOf[B] = WantIDom;
    for (const BasicBlock *A : Blocks)
      EXPECT_EQ(DT.dominates(A, B), RefDominates(A, B))
          << A->getName() << " dom " << B->getName();
  }
  for (const BasicBlock *B : Blocks) {
    std::vector<BasicBlock *> WantChildren;
    for (BasicBlock *C : DT.getRPO())
      if (WantIDomOf[C] == B)
        WantChildren.push_back(C);
    EXPECT_EQ(blocksOf(DT.getChildren(B)), WantChildren) << B->getName();
  }
}

/// Expects \p Got, a dominator tree from a FunctionAnalyses cache, to equal
/// one built fresh: RPO, and each block's idom, reachable predecessors and
/// children.
void expectSameDomTree(const Function &F, const DominatorTree &Got) {
  DominatorTree Want(F);
  EXPECT_EQ(Got.getRPO(), Want.getRPO());
  for (const BasicBlock *BB : F.blocks()) {
    EXPECT_EQ(Got.getIDom(BB), Want.getIDom(BB)) << BB->getName();
    EXPECT_EQ(blocksOf(Got.predecessors(BB)), blocksOf(Want.predecessors(BB)))
        << BB->getName();
    EXPECT_EQ(blocksOf(Got.getChildren(BB)), blocksOf(Want.getChildren(BB)))
        << BB->getName();
  }
}

/// Expects \p Got, a loop info from a FunctionAnalyses cache, to equal one
/// built fresh, loop by loop in innermost-first order.
void expectSameLoopInfo(const Function &F, const LoopInfo &Got) {
  DominatorTree DT(F);
  LoopInfo Want(F, DT);
  ASSERT_EQ(Got.isIrreducible(), Want.isIrreducible());
  std::vector<Loop *> GotLoops = Got.getLoopsInnermostFirst();
  std::vector<Loop *> WantLoops = Want.getLoopsInnermostFirst();
  ASSERT_EQ(GotLoops.size(), WantLoops.size());
  auto HeaderOf = [](const Loop *L) {
    return L ? L->getHeader() : nullptr;
  };
  for (size_t I = 0; I < GotLoops.size(); ++I) {
    const Loop &G = *GotLoops[I];
    const Loop &W = *WantLoops[I];
    SCOPED_TRACE(W.getHeader()->getName());
    EXPECT_EQ(G.getHeader(), W.getHeader());
    EXPECT_EQ(G.getBlocks(), W.getBlocks());
    EXPECT_EQ(G.getLatches(), W.getLatches());
    EXPECT_EQ(G.getPreheader(), W.getPreheader());
    EXPECT_EQ(G.getEntering(), W.getEntering());
    EXPECT_EQ(G.getExitingBlocks(), W.getExitingBlocks());
    EXPECT_EQ(G.getExitBlocks(), W.getExitBlocks());
    EXPECT_EQ(HeaderOf(G.getParent()), HeaderOf(W.getParent()));
  }
  for (const BasicBlock *BB : F.blocks())
    EXPECT_EQ(HeaderOf(Got.getLoopFor(BB)), HeaderOf(Want.getLoopFor(BB)))
        << BB->getName();
}

} // namespace

TEST(Dominators, UnreachablePredecessorAndDoubleEdge) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %j, label %j
dead:
  br label %k
j:
  br label %k
k:
  ret i32 0
}
)");
  Function *F = M->getFunction("f");
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *Dead = blockNamed(F, "dead");
  BasicBlock *J = blockNamed(F, "j");
  BasicBlock *K = blockNamed(F, "k");
  // Both edges of the branch count once; the unreachable block is still a
  // predecessor, in function order.
  EXPECT_EQ(J->predecessors(), std::vector<BasicBlock *>{Entry});
  EXPECT_EQ(K->predecessors(), (std::vector<BasicBlock *>{Dead, J}));
  EXPECT_EQ(computeRPO(*F), (std::vector<BasicBlock *>{Entry, J, K}));

  DominatorTree DT(*F);
  EXPECT_FALSE(DT.isReachable(Dead));
  EXPECT_EQ(DT.getIDom(J), Entry);
  EXPECT_EQ(DT.getIDom(K), J) << "the unreachable predecessor is ignored";
  EXPECT_EQ(DT.getIDom(Dead), nullptr);
  EXPECT_TRUE(DT.dominates(J, K));
  EXPECT_FALSE(DT.dominates(Dead, K));
  EXPECT_FALSE(DT.dominates(Dead, Dead));
  EXPECT_EQ(blocksOf(DT.predecessors(K)), std::vector<BasicBlock *>{J});
  EXPECT_EQ(blocksOf(DT.predecessors(J)), std::vector<BasicBlock *>{Entry});
  EXPECT_TRUE(DT.predecessors(Dead).empty());
  EXPECT_EQ(blocksOf(DT.getChildren(Entry)), std::vector<BasicBlock *>{J});
  EXPECT_EQ(blocksOf(DT.getChildren(J)), std::vector<BasicBlock *>{K});
  EXPECT_TRUE(DT.getChildren(K).empty());
  EXPECT_TRUE(DT.getChildren(Dead).empty()) << "unreachable: empty range";
  expectDominatorsMatchReference(*F);
}

TEST(Dominators, BlocksOfAnotherFunctionAnswerAsUnreachable) {
  // Both functions number their blocks from 0, so each block of @g shares
  // its number with a block of @f; the analyses of @f must still not see
  // @g's blocks as their own.
  Context Ctx;
  auto M = parseOrDie(Ctx, std::string(LoopSrc) + R"(
define i32 @g(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %h, label %x
x:
  ret i32 %i2
}
)");
  Function *F = M->getFunction("f");
  Function *G = M->getFunction("g");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  Loop *L = LI.getTopLevelLoops().front();
  for (BasicBlock *BB : G->blocks()) {
    SCOPED_TRACE(BB->getName());
    EXPECT_FALSE(DT.isReachable(BB));
    EXPECT_EQ(DT.getRPONumber(BB), -1);
    EXPECT_EQ(DT.getIDom(BB), nullptr);
    EXPECT_FALSE(DT.dominates(F->getEntryBlock(), BB));
    EXPECT_FALSE(DT.dominates(BB, BB));
    EXPECT_TRUE(DT.predecessors(BB).empty());
    EXPECT_TRUE(DT.getChildren(BB).empty());
    EXPECT_EQ(LI.getLoopFor(BB), nullptr);
    EXPECT_FALSE(LI.isLoopHeader(BB));
    EXPECT_FALSE(L->contains(BB));
  }
}

TEST(Dominators, MatchBruteForceOnPaperSuite) {
  // Every function of the 12 paper profiles, before and after a pipeline:
  // the optimizer's CFG edits (unswitching, deletion, SCCP and SimplifyCFG
  // folds) reach shapes the generator alone does not. The passes run one
  // at a time on one FunctionAnalyses, as in PassManager::run; after each
  // pass the cache must hand out analyses equal to fresh ones, which is
  // what its CFG key promises.
  for (const char *Pipeline : {getPaperPipeline(), "instcombine,simplifycfg"}) {
    SCOPED_TRACE(Pipeline);
    for (const BenchmarkProfile &P : getPaperSuite()) {
      SCOPED_TRACE(P.Name);
      Context Ctx;
      auto Orig = generateBenchmark(Ctx, P);
      auto Opt = cloneModule(*Orig);
      PassManager PM;
      ASSERT_TRUE(PM.parsePipeline(Pipeline));
      for (Function *F : Opt->definedFunctions()) {
        SCOPED_TRACE(F->getName());
        FunctionAnalyses FA;
        for (const auto &Pass : PM.passes()) {
          SCOPED_TRACE(Pass->getName());
          Pass->run(*F, FA);
          expectSameDomTree(*F, *FA.domTree(*F));
          expectSameLoopInfo(*F, *FA.loopInfo(*F));
        }
      }
      for (const Module *M : {Orig.get(), Opt.get()})
        for (const Function *F : M->definedFunctions())
          expectDominatorsMatchReference(*F);

      // Then the edit a constant fold makes, on every branch in turn: the
      // branch keeps its first successor. The dead side often keeps other
      // predecessors, so often only the branch's second successor changes.
      for (Function *F : Opt->definedFunctions()) {
        SCOPED_TRACE(F->getName());
        FunctionAnalyses FA;
        FA.loopInfo(*F);
        for (BasicBlock *BB : F->blocks()) {
          auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
          if (!Br || !Br->isConditional())
            continue;
          Br->makeUnconditional(Br->getSuccessor(0));
          expectSameDomTree(*F, *FA.domTree(*F));
          expectSameLoopInfo(*F, *FA.loopInfo(*F));
        }
      }
    }
  }
}

TEST(FunctionAnalyses, ReusesUntilTheCFGChanges) {
  Context Ctx;
  auto M = parseOrDie(Ctx, NestedLoopSrc);
  Function *F = M->getFunction("f");
  FunctionAnalyses FA;
  std::shared_ptr<LoopInfo> LI = FA.loopInfo(*F);
  std::shared_ptr<const DominatorTree> DT = FA.domTree(*F);
  EXPECT_EQ(FA.getDomTreeBuilds(), 1u);
  EXPECT_EQ(FA.getLoopInfoBuilds(), 1u);

  // An instruction edit leaves the CFG alone: the same analyses again.
  BasicBlock *IB = blockNamed(F, "ib");
  Instruction *Add = IB->front();
  IB->remove(Add);
  IB->insert(IB->begin(), Add);
  EXPECT_EQ(FA.domTree(*F), DT);
  EXPECT_EQ(FA.loopInfo(*F), LI);

  // Each kind of CFG edit re-keys the cache; the old handles stay usable.
  auto ExpectRebuilt = [&](const char *Edit) {
    SCOPED_TRACE(Edit);
    unsigned Builds = FA.getDomTreeBuilds();
    std::shared_ptr<const DominatorTree> NewDT = FA.domTree(*F);
    EXPECT_EQ(FA.getDomTreeBuilds(), Builds + 1);
    expectSameDomTree(*F, *NewDT);
    expectSameLoopInfo(*F, *FA.loopInfo(*F));
    EXPECT_FALSE(DT->getRPO().empty());
    EXPECT_FALSE(LI->getTopLevelLoops().empty());
  };
  BasicBlock *OH = blockNamed(F, "oh");
  BasicBlock *IH = blockNamed(F, "ih");
  BasicBlock *OL = blockNamed(F, "ol");
  BasicBlock *Done = blockNamed(F, "done");
  auto *IHBr = cast<BranchInst>(IH->getTerminator());
  IHBr->setSuccessor(1, Done);
  ExpectRebuilt("second successor");
  IHBr->setSuccessor(1, OL);
  ExpectRebuilt("second successor back");
  BasicBlock *Extra = F->createBlock("extra");
  ExpectRebuilt("createBlock");
  Extra->append(F->bodyArena().create<BranchInst>(OH, Ctx.getVoidTy()));
  ExpectRebuilt("terminator append");
  IHBr->setSuccessor(0, Extra);
  ExpectRebuilt("first successor");
  IHBr->makeUnconditional(Extra);
  ExpectRebuilt("makeUnconditional");
  std::vector<BasicBlock *> Order(F->blocks().rbegin(), F->blocks().rend());
  std::rotate(Order.begin(), std::find(Order.begin(), Order.end(),
                                       F->getEntryBlock()),
              Order.end());
  F->reorderBlocks(Order);
  ExpectRebuilt("reorderBlocks");
  Extra->erase(Extra->getTerminator());
  ExpectRebuilt("terminator erase");
  IHBr->makeUnconditional(OL);
  ExpectRebuilt("makeUnconditional back");
  F->eraseBlock(Extra);
  ExpectRebuilt("eraseBlock");
}

TEST(LoopInfoTest, SimpleLoop) {
  Context Ctx;
  auto M = parseOrDie(Ctx, LoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_FALSE(LI.isIrreducible());
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop *L = LI.getTopLevelLoops().front();
  EXPECT_EQ(L->getHeader()->getName(), "h");
  EXPECT_TRUE(LI.isLoopHeader(blockNamed(F, "h")));
  EXPECT_TRUE(L->contains(blockNamed(F, "body")));
  EXPECT_TRUE(L->contains(blockNamed(F, "latch")));
  EXPECT_FALSE(L->contains(blockNamed(F, "x")));
  ASSERT_EQ(L->getLatches().size(), 1u);
  EXPECT_EQ(L->getLatches().front()->getName(), "latch");
  ASSERT_EQ(L->getExitBlocks().size(), 1u);
  EXPECT_EQ(L->getExitBlocks().front()->getName(), "x");
  // entry -> h is the only entering edge but entry has one successor, so
  // it qualifies as a preheader.
  EXPECT_EQ(L->getPreheader(), blockNamed(F, "entry"));
}

TEST(LoopInfoTest, NestedLoops) {
  Context Ctx;
  auto M = parseOrDie(Ctx, NestedLoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop *Outer = LI.getTopLevelLoops().front();
  ASSERT_EQ(Outer->getSubLoops().size(), 1u);
  Loop *Inner = Outer->getSubLoops().front();
  EXPECT_EQ(Inner->getParent(), Outer);
  EXPECT_EQ(Inner->getDepth(), 2u);
  EXPECT_EQ(LI.getLoopFor(blockNamed(F, "ib")), Inner);
  EXPECT_EQ(LI.getLoopFor(blockNamed(F, "ol")), Outer);
  auto InnermostFirst = LI.getLoopsInnermostFirst();
  ASSERT_EQ(InnermostFirst.size(), 2u);
  EXPECT_EQ(InnermostFirst[0], Inner);
  EXPECT_EQ(InnermostFirst[1], Outer);
}

TEST(LoopInfoTest, IrreducibleDetected) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  br i1 %c, label %a, label %x
x:
  ret void
}
)");
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_TRUE(LI.isIrreducible());
}

TEST(Alias, DistinctAllocasNoAlias) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f() {
entry:
  %p = alloca i32
  %q = alloca i32
  store i32 1, ptr %p
  store i32 2, ptr %q
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  std::vector<Value *> Allocas;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      Allocas.push_back(I);
  ASSERT_EQ(Allocas.size(), 2u);
  EXPECT_EQ(AA.alias(Allocas[0], 4, Allocas[1], 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(Allocas[0], 4, Allocas[0], 4), AliasResult::MustAlias);
  EXPECT_TRUE(AA.isNonEscapingAlloca(Allocas[0]));
}

TEST(Alias, GEPConstantOffsets) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i64 %i) {
entry:
  %p = alloca i32, i64 8
  %a = getelementptr i32, ptr %p, i64 1
  %b = getelementptr i32, ptr %p, i64 2
  %c = getelementptr i32, ptr %p, i64 %i
  store i32 1, ptr %a
  store i32 2, ptr %b
  store i32 3, ptr %c
  %v = load i32, ptr %a
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  std::map<std::string, Value *> ByName;
  for (Instruction *I : *F->getEntryBlock())
    if (I->hasName())
      ByName[I->getName()] = I;
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["b"], 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["a"], 4), AliasResult::MustAlias);
  // Variable index: may alias.
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["c"], 4), AliasResult::MayAlias);
  // Overlapping ranges (byte offset 4..8 vs 8..12 disjoint; 4-wide at 4 vs
  // 8-wide at 0 overlaps).
  EXPECT_EQ(AA.alias(ByName["a"], 8, ByName["b"], 4), AliasResult::MayAlias);
}

TEST(Alias, EscapedAllocaIsConservative) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
declare void @sink(ptr)
define i32 @f(ptr %unknown) {
entry:
  %p = alloca i32
  call void @sink(ptr %p)
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  Value *P = nullptr;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      P = I;
  EXPECT_FALSE(AA.isNonEscapingAlloca(P));
  // Escaped alloca vs unknown pointer: still distinct identified object vs
  // argument decomposition gives MayAlias.
  EXPECT_EQ(AA.alias(P, 4, F->getArg(0), 4), AliasResult::MayAlias);
}

TEST(Alias, GlobalsAndAllocas) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
@g = global i32 0
@h = global i32 0
define i32 @f() {
entry:
  %p = alloca i32
  store i32 1, ptr @g
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  Value *P = nullptr;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      P = I;
  EXPECT_EQ(AA.alias(M->getGlobal("g"), 4, M->getGlobal("h"), 4),
            AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(M->getGlobal("g"), 4, P, 4), AliasResult::NoAlias);
}
