//===- PassTest.cpp - Optimizer pass tests --------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloning.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "opt/BugInjector.h"
#include "opt/Local.h"
#include "opt/LoopUtils.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

/// Runs a pass on the single function of \p Src; returns the optimized,
/// verified module and whether the pass reported a change.
struct PassRun {
  Context Ctx;
  std::unique_ptr<Module> Orig;
  std::unique_ptr<Module> Opt;
  bool Changed = false;
  Function *F = nullptr;

  PassRun(const char *Src, const std::string &Pipeline) {
    ParseResult R = parseModule(Ctx, Src);
    EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
    Orig = std::move(R.M);
    Opt = cloneModule(*Orig);
    PassManager PM;
    EXPECT_TRUE(PM.parsePipeline(Pipeline));
    F = Opt->definedFunctions().front();
    Changed = PM.run(*F);
    expectVerified(*Opt);
  }

  /// Differential check on integer arguments.
  void expectSameBehavior(std::vector<std::vector<RtValue>> ArgSets) {
    Function *FI = Orig->definedFunctions().front();
    Interpreter IA(*Orig), IB(*Opt);
    for (auto &Args : ArgSets) {
      ExecResult RA = IA.run(*FI, Args);
      ExecResult RB = IB.run(*F, Args);
      ASSERT_EQ(RA.Status, ExecStatus::OK) << RA.Detail;
      ASSERT_EQ(RB.Status, ExecStatus::OK) << RB.Detail;
      EXPECT_TRUE(RA.Value == RB.Value);
      EXPECT_EQ(IA.globalMemory(), IB.globalMemory());
    }
  }

  size_t instCount() const { return F->getInstructionCount(); }
};

std::vector<std::vector<RtValue>> intArgs1() {
  return {{RtValue::makeInt(0)},
          {RtValue::makeInt(7)},
          {RtValue::makeInt(-3)},
          {RtValue::makeInt(100)}};
}

} // namespace

//===----------------------------------------------------------------------===//
// SCCP
//===----------------------------------------------------------------------===//

TEST(SCCP, FoldsConstantChain) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 2, 3
  %y = mul i32 %x, 4
  %r = add i32 %y, %a
  ret i32 %r
}
)",
            "sccp");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  EXPECT_EQ(R.instCount(), 2u); // add + ret
}

TEST(SCCP, ResolvesConstantBranchesAndPhis) {
  // The paper's §4 GVN+SCCP example shape: the whole thing folds to 1.
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %c = icmp slt i32 3, 5
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %x
}
)",
            "sccp");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  // The false edge is gone; the return value folded to the constant 1.
  // (SCCP leaves straight-line block chains; simplifycfg merges them.)
  for (const auto &BB : R.F->blocks())
    if (auto *Ret = dyn_cast_or_null<ReturnInst>(BB->getTerminator()))
      EXPECT_EQ(cast<ConstantInt>(Ret->getReturnValue())->getSExtValue(), 1);
  EXPECT_LE(R.F->getNumBlocks(), 3u);
}

TEST(SCCP, PropagatesThroughPhis) {
  PassRun R(R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i32 [ 4, %t ], [ 4, %e ]
  %y = add i32 %x, 1
  ret i32 %y
}
)",
            "sccp");
  EXPECT_TRUE(R.Changed);
  Interpreter I(*R.Opt);
  auto Res = I.run(*R.F, {RtValue::makeInt(1)});
  EXPECT_EQ(Res.Value.Int, 5);
}

TEST(SCCP, KeepsOverdefinedAlone) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}
)",
            "sccp");
  EXPECT_FALSE(R.Changed);
}

//===----------------------------------------------------------------------===//
// GVN
//===----------------------------------------------------------------------===//

TEST(GVN, EliminatesCommonSubexpressions) {
  PassRun R(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %y = add i32 %a, %b
  %z = add i32 %x, %y
  ret i32 %z
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(R.instCount(), 3u); // one add + the doubling + ret
}

TEST(GVN, CommutativeAndSwappedComparisons) {
  PassRun R(R"(
define i1 @f(i32 %a, i32 %b) {
entry:
  %x = icmp slt i32 %a, %b
  %y = icmp sgt i32 %b, %a
  %r = and i1 %x, %y
  ret i1 %r
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  // and x x simplifies away too; only the compare and ret remain.
  EXPECT_EQ(R.instCount(), 2u);
}

TEST(GVN, ForwardsStoreToLoad) {
  PassRun R(R"(
define i32 @f(i32 %v) {
entry:
  %p = alloca i32
  store i32 %v, ptr %p
  %x = load i32, ptr %p
  ret i32 %x
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  // The load is gone.
  for (Instruction *I : *R.F->getEntryBlock())
    EXPECT_NE(I->getOpcode(), Opcode::Load);
}

TEST(GVN, LoadJumpsOverNoAliasStore) {
  PassRun R(R"(
define i32 @f(i32 %v) {
entry:
  %p = alloca i32
  %q = alloca i32
  store i32 %v, ptr %p
  store i32 99, ptr %q
  %x = load i32, ptr %p
  ret i32 %x
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
}

TEST(GVN, RespectsMayAliasStores) {
  PassRun R(R"(
define i32 @f(ptr %p, ptr %q, i32 %v) {
entry:
  store i32 %v, ptr %p
  store i32 99, ptr %q
  %x = load i32, ptr %p
  ret i32 %x
}
)",
            "gvn");
  // p and q may alias: the load must stay.
  bool HasLoad = false;
  for (Instruction *I : *R.F->getEntryBlock())
    HasLoad |= I->getOpcode() == Opcode::Load;
  EXPECT_TRUE(HasLoad);
}

TEST(GVN, MergesEquivalentPhis) {
  PassRun R(R"(
define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i32 [ %a, %t ], [ %b, %e ]
  %y = phi i32 [ %a, %t ], [ %b, %e ]
  %s = add i32 %x, %y
  ret i32 %s
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(R.F->blocks().back()->phis().size(), 1u);
}

// One block of 20,000 φs, every tenth a copy of the one before it: GVN
// erases 2,000 φs from the middle of a 40,000-instruction block. Each
// erase must be O(1) (a list walk per erase took seconds), and each copy's
// users must move to the φ it duplicates.
TEST(GVN, MergesDuplicatePhisInAHugeBlock) {
  const unsigned NumPhis = 20000;
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(
      Ctx.getFunctionTy(I32, {Ctx.getInt1Ty(), I32}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), L, R);
  B.setInsertPoint(L);
  B.createBr(J);
  B.setInsertPoint(R);
  B.createBr(J);
  B.setInsertPoint(J);
  std::vector<PhiNode *> Phis;
  for (unsigned K = 0; K != NumPhis; ++K) {
    // φ K copies φ K-1 when K % 10 == 9.
    unsigned Key = K % 10 == 9 ? K - 1 : K;
    auto *P = F->bodyArena().create<PhiNode>(I32);
    P->setName("p" + std::to_string(K));
    J->append(P);
    P->addIncoming(Ctx.getInt32(Key), L);
    P->addIncoming(Ctx.getInt32(Key + 1), R);
    Phis.push_back(P);
  }
  Value *Acc = F->getArg(1);
  std::vector<Instruction *> Sums;
  for (PhiNode *P : Phis) {
    Acc = B.createAdd(Acc, P);
    Sums.push_back(cast<Instruction>(Acc));
  }
  B.createRet(Acc);
  expectVerified(M);

  ASSERT_TRUE(createPass("gvn")->run(*F));
  expectVerified(M);
  EXPECT_EQ(J->phis().size(), NumPhis - NumPhis / 10);
  EXPECT_EQ(J->size(), 2 * NumPhis - NumPhis / 10 + 1);
  for (unsigned K = 0; K != NumPhis; ++K) {
    PhiNode *Want = Phis[K % 10 == 9 ? K - 1 : K];
    EXPECT_EQ(Want->getParent(), J);
    ASSERT_EQ(Sums[K]->getOperand(1), Want) << "sum " << K;
    if (K % 10 == 9)
      EXPECT_EQ(Phis[K]->getParent(), nullptr);
  }
}

TEST(GVN, FoldsConstantGlobalLoad) {
  PassRun R(R"(
@c = constant i32 1234
define i32 @f() {
entry:
  %x = load i32, ptr @c
  ret i32 %x
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  auto *Ret = cast<ReturnInst>(R.F->getEntryBlock()->getTerminator());
  EXPECT_EQ(cast<ConstantInt>(Ret->getReturnValue())->getSExtValue(), 1234);
}

TEST(GVN, MemsetForwardsFillByte) {
  PassRun R(R"(
declare void @memset(ptr, i32, i64)
define i8 @f() {
entry:
  %p = alloca i8, i64 8
  call void @memset(ptr %p, i32 65, i64 8)
  %q = getelementptr i8, ptr %p, i64 3
  %x = load i8, ptr %q
  ret i8 %x
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  auto *Ret = cast<ReturnInst>(R.F->blocks().back()->getTerminator());
  EXPECT_EQ(cast<ConstantInt>(Ret->getReturnValue())->getSExtValue(), 65);
}

//===----------------------------------------------------------------------===//
// ADCE
//===----------------------------------------------------------------------===//

TEST(ADCE, RemovesDeadCode) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %dead1 = mul i32 %a, 17
  %dead2 = add i32 %dead1, 4
  %live = add i32 %a, 1
  ret i32 %live
}
)",
            "adce");
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(R.instCount(), 2u);
  R.expectSameBehavior(intArgs1());
}

TEST(ADCE, RemovesDeadPhiCycles) {
  PassRun R(R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %dead = phi i32 [ 1, %entry ], [ %dead2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %dead2 = add i32 %dead, 3
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %i
}
)",
            "adce");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  for (const auto &BB : R.F->blocks())
    for (Instruction *I : *BB)
      EXPECT_EQ(I->getName().find("dead"), std::string::npos);
}

TEST(ADCE, KeepsStoresAndCalls) {
  PassRun R(R"(
declare void @effect(i32)
@g = global i32 0
define void @f(i32 %a) {
entry:
  store i32 %a, ptr @g
  call void @effect(i32 %a)
  ret void
}
)",
            "adce");
  EXPECT_FALSE(R.Changed);
  EXPECT_EQ(R.instCount(), 3u);
}

TEST(ADCE, RemovesUnusedReadOnlyCall) {
  PassRun R(R"(
declare i64 @strlen(ptr) readonly
define i32 @f(ptr %s) {
entry:
  %unused = call i64 @strlen(ptr %s)
  ret i32 5
}
)",
            "adce");
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(R.instCount(), 1u);
}

//===----------------------------------------------------------------------===//
// LICM
//===----------------------------------------------------------------------===//

TEST(LICM, HoistsInvariantArithmetic) {
  PassRun R(R"(
define i32 @f(i32 %n, i32 %a) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %s = phi i32 [ 0, %entry ], [ %s2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %inv = mul i32 %a, 7
  %s2 = add i32 %s, %inv
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
            "licm");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior({{RtValue::makeInt(0), RtValue::makeInt(3)},
                        {RtValue::makeInt(4), RtValue::makeInt(-2)}});
  // The multiply now lives outside the loop body.
  bool MulInBody = false;
  for (const auto &BB : R.F->blocks())
    if (BB->getName() == "b")
      for (Instruction *I : *BB)
        MulInBody |= I->getOpcode() == Opcode::Mul;
  EXPECT_FALSE(MulInBody);
}

TEST(LICM, DoesNotHoistVaryingValues) {
  PassRun R(R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %s = phi i32 [ 0, %entry ], [ %s2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %sq = mul i32 %i, %i
  %s2 = add i32 %s, %sq
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
            "licm");
  R.expectSameBehavior(intArgs1());
  bool MulInBody = false;
  for (const auto &BB : R.F->blocks())
    if (BB->getName() == "b")
      for (Instruction *I : *BB)
        MulInBody |= I->getOpcode() == Opcode::Mul;
  EXPECT_TRUE(MulInBody);
}

TEST(LICM, HoistsReadOnlyCallFromWritingLoop) {
  // The paper's strlen scenario: the loop stores to a local array that
  // cannot alias the string, so LLVM-style libc knowledge hoists strlen.
  PassRun R(R"(
declare i64 @strlen(ptr) readonly
define i32 @f(i32 %n, ptr %s) {
entry:
  %arr = alloca i32, i64 8
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %acc = phi i32 [ 0, %entry ], [ %a2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %len = call i64 @strlen(ptr %s)
  %l32 = trunc i64 %len to i32
  %a2 = add i32 %acc, %l32
  store i32 %a2, ptr %arr
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %acc
}
)",
            "licm");
  EXPECT_TRUE(R.Changed);
  bool CallInBody = false;
  for (const auto &BB : R.F->blocks())
    if (BB->getName() == "b")
      for (Instruction *I : *BB)
        CallInBody |= I->getOpcode() == Opcode::Call;
  EXPECT_FALSE(CallInBody);
}

TEST(LICM, CreatesPreheaderWhenNeeded) {
  PassRun R(R"(
define i32 @f(i1 %c, i32 %n, i32 %a) {
entry:
  br i1 %c, label %h, label %other
other:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ 0, %other ], [ %i2, %h2 ]
  %s = phi i32 [ 1, %entry ], [ 2, %other ], [ %s2, %h2 ]
  %cc = icmp slt i32 %i, %n
  br i1 %cc, label %h2, label %x
h2:
  %inv = add i32 %a, 5
  %s2 = xor i32 %s, %inv
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
            "licm");
  EXPECT_TRUE(R.Changed);
  expectVerified(*R.Opt);
  R.expectSameBehavior({{RtValue::makeInt(1), RtValue::makeInt(3),
                         RtValue::makeInt(9)},
                        {RtValue::makeInt(0), RtValue::makeInt(2),
                         RtValue::makeInt(-1)}});
}

TEST(LoopUtils, EnsurePreheaderTwiceCreatesOneBlock) {
  // Two entering edges, so the first call must build a preheader; the
  // loop then records it, and the second call returns the same block.
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i1 %c, i32 %n) {
entry:
  br i1 %c, label %h, label %other
other:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ 1, %other ], [ %i2, %h ]
  %i2 = add i32 %i, 1
  %cc = icmp slt i32 %i2, %n
  br i1 %cc, label %h, label %x
x:
  ret i32 %i2
}
)");
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop &L = *LI.getTopLevelLoops().front();
  ASSERT_EQ(L.getPreheader(), nullptr);
  size_t Blocks = F->getNumBlocks();

  BasicBlock *Pre = ensurePreheader(*F, L);
  ASSERT_NE(Pre, nullptr);
  EXPECT_EQ(L.getPreheader(), Pre);
  EXPECT_EQ(L.getEntering(), std::vector<BasicBlock *>{Pre});
  EXPECT_EQ(ensurePreheader(*F, L), Pre);
  EXPECT_EQ(F->getNumBlocks(), Blocks + 1);
  expectVerified(*M);

  // The updated loop agrees with one computed from the new CFG.
  DominatorTree FreshDT(*F);
  LoopInfo Fresh(*F, FreshDT);
  ASSERT_EQ(Fresh.getTopLevelLoops().size(), 1u);
  EXPECT_EQ(Fresh.getTopLevelLoops().front()->getPreheader(), Pre);
  EXPECT_EQ(Fresh.getTopLevelLoops().front()->getEntering(),
            std::vector<BasicBlock *>{Pre});
}

//===----------------------------------------------------------------------===//
// Loop deletion
//===----------------------------------------------------------------------===//

TEST(LoopDeletion, RemovesEffectFreeUnusedLoop) {
  PassRun R(R"(
define i32 @f(i32 %n, i32 %a) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %a
}
)",
            "loop-deletion");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior({{RtValue::makeInt(3), RtValue::makeInt(7)}});
  // No loop remains.
  DominatorTree DT(*R.F);
  LoopInfo LI(*R.F, DT);
  EXPECT_TRUE(LI.getTopLevelLoops().empty());
}

TEST(LoopDeletion, KeepsLoopsWithStores) {
  PassRun R(R"(
@g = global i32 0
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  store i32 %i, ptr @g
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 0
}
)",
            "loop-deletion");
  EXPECT_FALSE(R.Changed);
}

TEST(LoopDeletion, KeepsLoopsWhoseResultIsUsed) {
  PassRun R(R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %i
}
)",
            "loop-deletion");
  EXPECT_FALSE(R.Changed);
  R.expectSameBehavior(intArgs1());
}

//===----------------------------------------------------------------------===//
// Loop unswitching
//===----------------------------------------------------------------------===//

TEST(LoopUnswitch, DuplicatesLoopOnInvariantBranch) {
  PassRun R(R"(
define i32 @f(i32 %n, i1 %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %l ]
  %s = phi i32 [ 0, %entry ], [ %s2, %l ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  br i1 %p, label %bt, label %be
bt:
  %vt = add i32 %s, %i
  br label %j
be:
  %ve = sub i32 %s, %i
  br label %j
j:
  %s2 = phi i32 [ %vt, %bt ], [ %ve, %be ]
  br label %l
l:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
            "loop-unswitch");
  EXPECT_TRUE(R.Changed);
  expectVerified(*R.Opt);
  R.expectSameBehavior({{RtValue::makeInt(5), RtValue::makeInt(1)},
                        {RtValue::makeInt(5), RtValue::makeInt(0)},
                        {RtValue::makeInt(0), RtValue::makeInt(1)}});
  // The invariant branch no longer sits inside either loop version.
  DominatorTree DT(*R.F);
  LoopInfo LI(*R.F, DT);
  for (Loop *L : LI.getLoopsInnermostFirst())
    for (BasicBlock *BB : L->getBlocks()) {
      auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      EXPECT_FALSE(Br->getCondition() == R.F->getArg(1))
          << "invariant branch still inside a loop";
    }
}

TEST(LoopUnswitch, LeavesVariantBranchesAlone) {
  PassRun R(R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %l ]
  %s = phi i32 [ 0, %entry ], [ %s2, %l ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %odd = and i32 %i, 1
  %isodd = icmp ne i32 %odd, 0
  br i1 %isodd, label %bt, label %be
bt:
  %vt = add i32 %s, %i
  br label %j
be:
  %ve = sub i32 %s, 1
  br label %j
j:
  %s2 = phi i32 [ %vt, %bt ], [ %ve, %be ]
  br label %l
l:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)",
            "loop-unswitch");
  EXPECT_FALSE(R.Changed);
}

//===----------------------------------------------------------------------===//
// DSE
//===----------------------------------------------------------------------===//

TEST(DSE, RemovesOverwrittenStore) {
  PassRun R(R"(
@g = global i32 0
define void @f(i32 %a, i32 %b) {
entry:
  store i32 %a, ptr @g
  store i32 %b, ptr @g
  ret void
}
)",
            "dse");
  EXPECT_TRUE(R.Changed);
  EXPECT_EQ(R.instCount(), 2u);
  R.expectSameBehavior({{RtValue::makeInt(1), RtValue::makeInt(2)}});
}

TEST(DSE, KeepsStoreReadInBetween) {
  PassRun R(R"(
@g = global i32 0
define i32 @f(i32 %a, i32 %b) {
entry:
  store i32 %a, ptr @g
  %v = load i32, ptr @g
  store i32 %b, ptr @g
  ret i32 %v
}
)",
            "dse");
  EXPECT_FALSE(R.Changed);
}

TEST(DSE, RemovesStoresToNeverLoadedAlloca) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %p = alloca i32
  store i32 %a, ptr %p
  ret i32 %a
}
)",
            "dse");
  EXPECT_TRUE(R.Changed);
  for (Instruction *I : *R.F->getEntryBlock())
    EXPECT_NE(I->getOpcode(), Opcode::Store);
}

TEST(DSE, RespectsMayAliasReaders) {
  PassRun R(R"(
declare i32 @reader(ptr)
define i32 @f(i32 %a) {
entry:
  %p = alloca i32
  store i32 %a, ptr %p
  %r = call i32 @reader(ptr %p)
  store i32 0, ptr %p
  ret i32 %r
}
)",
            "dse");
  // The first store is observed by the escaped call.
  unsigned Stores = 0;
  for (Instruction *I : *R.F->getEntryBlock())
    Stores += I->getOpcode() == Opcode::Store;
  EXPECT_EQ(Stores, 2u);
}

//===----------------------------------------------------------------------===//
// InstCombine / SimplifyCFG
//===----------------------------------------------------------------------===//

TEST(InstCombine, CanonicalizesLikeLLVM) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  %dbl = add i32 %a, %a
  %m8 = mul i32 %a, 8
  %sub = add i32 %a, -5
  %cmp = icmp sgt i32 10, %a
  %z = zext i1 %cmp to i32
  %t1 = add i32 %dbl, %m8
  %t2 = add i32 %t1, %sub
  %t3 = add i32 %t2, %z
  ret i32 %t3
}
)",
            "instcombine");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  unsigned Shls = 0, Subs = 0;
  for (Instruction *I : *R.F->getEntryBlock()) {
    Shls += I->getOpcode() == Opcode::Shl;
    Subs += I->getOpcode() == Opcode::Sub;
    if (auto *Cmp = dyn_cast<ICmpInst>(I))
      EXPECT_FALSE(isa<ConstantInt>(Cmp->getLHS()))
          << "constant should move to the RHS";
  }
  EXPECT_EQ(Shls, 2u); // a+a and a*8
  EXPECT_EQ(Subs, 1u); // a + (-5)
}

TEST(SimplifyCFG, FoldsConstantBranchesAndMergesChains) {
  PassRun R(R"(
define i32 @f(i32 %a) {
entry:
  br i1 true, label %live, label %dead
live:
  %x = add i32 %a, 1
  br label %tail
dead:
  br label %tail
tail:
  %p = phi i32 [ %x, %live ], [ 0, %dead ]
  ret i32 %p
}
)",
            "simplifycfg");
  EXPECT_TRUE(R.Changed);
  R.expectSameBehavior(intArgs1());
  EXPECT_EQ(R.F->getNumBlocks(), 1u);
}

//===----------------------------------------------------------------------===//
// PassManager and bug injector
//===----------------------------------------------------------------------===//

TEST(PassManagerTest, ParsePipeline) {
  PassManager PM;
  EXPECT_TRUE(PM.parsePipeline(getPaperPipeline()));
  EXPECT_EQ(PM.size(), 7u);
  PassManager Bad;
  EXPECT_FALSE(Bad.parsePipeline("adce,frobnicate"));
  EXPECT_EQ(Bad.size(), 0u);
}

TEST(PassManagerTest, PaperPipelineOutputAndAnalysisBuildsOnSuite) {
  // The paper pipeline over the 12-profile suite pins two things:
  //  * an FNV-1a digest of every optimized module's printed text (786577
  //    bytes, 468 functions). It was read before the passes shared one
  //    analysis cache per function and before the analyses were indexed
  //    by block number: neither change moved a byte of output.
  //  * the dominator trees and loop infos the passes built, summed over
  //    the suite. Before the cache every pass built its own: 2451 and
  //    1935. These counts are the same on every machine.
  // Re-pin a changed digest or count only with a reason in CHANGES.md.
  uint64_t Digest = 0xcbf29ce484222325ULL;
  unsigned DomTrees = 0, LoopInfos = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    Context Ctx;
    auto M = generateBenchmark(Ctx, P);
    PassManager PM;
    ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
    PM.run(*M);
    std::string Text = printModule(*M);
    Digest = hashBytes(Text.data(), Text.size(), Digest);
    DomTrees += PM.getAnalysisBuilds().DomTrees;
    LoopInfos += PM.getAnalysisBuilds().LoopInfos;
  }
  EXPECT_EQ(Digest, 0x27af2cf41c2d5901ULL);
  EXPECT_EQ(DomTrees, 1276u);
  EXPECT_EQ(LoopInfos, 999u);
}

TEST(BugInjectorTest, ChangesBehavior) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  %s = select i1 %c, i32 %a, i32 %b
  %d = sub i32 %s, %b
  ret i32 %d
}
)");
  auto Mutant = cloneModule(*M);
  std::string Desc = injectBug(*Mutant->getFunction("f"), 42);
  EXPECT_FALSE(Desc.empty());
  expectVerified(*Mutant);
  // At least one input should differ.
  Interpreter IA(*M), IB(*Mutant);
  bool Differs = false;
  for (int A = -3; A <= 3; ++A)
    for (int B = -3; B <= 3; ++B) {
      auto RA = IA.run(*M->getFunction("f"),
                       {RtValue::makeInt(A), RtValue::makeInt(B)});
      auto RB = IB.run(*Mutant->getFunction("f"),
                       {RtValue::makeInt(A), RtValue::makeInt(B)});
      if (RA.Status == ExecStatus::OK && RB.Status == ExecStatus::OK &&
          !(RA.Value == RB.Value))
        Differs = true;
    }
  EXPECT_TRUE(Differs) << "mutation '" << Desc << "' was a no-op";
}

TEST(GVN, NoCSEAcrossSiblingBranches) {
  // The expression is computed in both arms of a diamond; neither arm
  // dominates the other, so dominator-scoped GVN must NOT merge them
  // (that would break dominance). The join φ is the legal meeting point.
  PassRun R(R"(
define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  %x = add i32 %a, %b
  br label %j
e:
  %y = add i32 %a, %b
  br label %j
j:
  %p = phi i32 [ %x, %t ], [ %y, %e ]
  ret i32 %p
}
)",
            "gvn");
  expectVerified(*R.Opt);
  unsigned Adds = 0;
  for (const auto &BB : R.F->blocks())
    for (Instruction *I : *BB)
      Adds += I->getOpcode() == Opcode::Add;
  EXPECT_EQ(Adds, 2u) << "sibling CSE would violate dominance";
  R.expectSameBehavior({{RtValue::makeInt(1), RtValue::makeInt(2),
                         RtValue::makeInt(3)},
                        {RtValue::makeInt(0), RtValue::makeInt(2),
                         RtValue::makeInt(3)}});
}

TEST(GVN, ScopedTableUnwindsAcrossBranches) {
  // An expression available in one arm must not leak into the other arm's
  // scope (classic scoped-hash-table bug).
  PassRun R(R"(
define i32 @f(i1 %c, i32 %a) {
entry:
  br i1 %c, label %t, label %e
t:
  %x = mul i32 %a, 7
  br label %j
e:
  %y = mul i32 %a, 7
  %z = add i32 %y, 1
  br label %j
j:
  %p = phi i32 [ %x, %t ], [ %z, %e ]
  ret i32 %p
}
)",
            "gvn");
  expectVerified(*R.Opt);
  R.expectSameBehavior({{RtValue::makeInt(1), RtValue::makeInt(5)},
                        {RtValue::makeInt(0), RtValue::makeInt(5)}});
}

TEST(GVN, CSEsDominatingExpressionIntoBothArms) {
  PassRun R(R"(
define i32 @f(i1 %c, i32 %a) {
entry:
  %x = mul i32 %a, 7
  br i1 %c, label %t, label %e
t:
  %y = mul i32 %a, 7
  br label %j
e:
  %z = mul i32 %a, 7
  br label %j
j:
  %p = phi i32 [ %y, %t ], [ %z, %e ]
  %r = add i32 %p, %x
  ret i32 %r
}
)",
            "gvn");
  EXPECT_TRUE(R.Changed);
  unsigned Muls = 0;
  for (const auto &BB : R.F->blocks())
    for (Instruction *I : *BB)
      Muls += I->getOpcode() == Opcode::Mul;
  EXPECT_EQ(Muls, 1u) << "the entry-block def dominates both arms";
  R.expectSameBehavior({{RtValue::makeInt(1), RtValue::makeInt(4)}});
}
