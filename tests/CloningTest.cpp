//===- CloningTest.cpp - Module/function/block cloning tests --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Cloning.h"
#include "support/Arena.h"
#include "ir/Interpreter.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

TEST(Cloning, ModuleDeepCopyIsIndependent) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
@g = global i32 10
declare i64 @strlen(ptr) readonly
define i32 @f(i32 %a) {
entry:
  %v = load i32, ptr @g
  %r = add i32 %v, %a
  store i32 %r, ptr @g
  ret i32 %r
}
)");
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  // Structural copy...
  EXPECT_EQ(printModule(*M), printModule(*Clone));
  // ...that references its own globals, not the original's.
  GlobalVariable *G1 = M->getGlobal("g");
  GlobalVariable *G2 = Clone->getGlobal("g");
  ASSERT_NE(G2, nullptr);
  EXPECT_NE(G1, G2);
  for (const auto &BB : Clone->getFunction("f")->blocks())
    for (Instruction *I : *BB)
      for (Value *Op : I->operands())
        EXPECT_NE(Op, static_cast<Value *>(G1))
            << "clone still references the original module's global";
  // Callee declarations are remapped too.
  EXPECT_EQ(Clone->getFunction("strlen")->getMemoryEffect(),
            MemoryEffect::ReadOnly);
  // Mutating the clone leaves the original untouched.
  Clone->getFunction("f")->dropBody();
  expectVerified(*M);
  EXPECT_EQ(M->getFunction("f")->getNumBlocks(), 1u);
}

TEST(Cloning, ClonePreservesBehavior) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, [] {
    BenchmarkProfile P = getProfile("mcf");
    P.FunctionCount = 5;
    return P;
  }());
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  Interpreter IA(*M), IB(*Clone);
  uint64_t SA = IA.materializeString("s");
  uint64_t SB = IB.materializeString("s");
  for (Function *F : M->definedFunctions()) {
    Function *FC = Clone->getFunction(F->getName());
    for (int T = 0; T < 3; ++T) {
      auto RA = IA.run(*F, {RtValue::makeInt(T), RtValue::makeInt(-T),
                            RtValue::makePtr(SA)});
      auto RB = IB.run(*FC, {RtValue::makeInt(T), RtValue::makeInt(-T),
                             RtValue::makePtr(SB)});
      ASSERT_EQ(RA.Status, RB.Status);
      if (RA.Status == ExecStatus::OK)
        EXPECT_TRUE(RA.Value == RB.Value);
    }
  }
}

TEST(Cloning, CloneInstructionCoversAllOpcodes) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
declare i32 @abs(i32) readnone
define i32 @f(i32 %a, ptr %p, i1 %c) {
entry:
  %add = add i32 %a, 1
  %cmp = icmp slt i32 %add, 5
  %sel = select i1 %cmp, i32 %add, i32 0
  %al = alloca i32, i64 2
  %gep = getelementptr i32, ptr %al, i64 1
  store i32 %sel, ptr %gep
  %ld = load i32, ptr %gep
  %cl = call i32 @abs(i32 %ld)
  %zx = zext i32 %cl to i64
  %tr = trunc i64 %zx to i32
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %phi = phi i32 [ %tr, %t ], [ 0, %e ]
  ret i32 %phi
}
)");
  Function *F = M->getFunction("f");
  Arena Scratch;
  for (const auto &BB : F->blocks()) {
    for (Instruction *I : *BB) {
      Instruction *C = cloneInstruction(I, Scratch);
      EXPECT_EQ(C->getOpcode(), I->getOpcode());
      EXPECT_EQ(C->getNumOperands(), I->getNumOperands());
      for (unsigned K = 0; K < I->getNumOperands(); ++K)
        EXPECT_EQ(C->getOperand(K), I->getOperand(K));
      C->dropAllReferences();
    }
  }
}

TEST(Cloning, CloneBlocksRemapsInternalEdges) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
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
)");
  Function *F = M->getFunction("f");
  std::vector<BasicBlock *> LoopBlocks;
  for (const auto &BB : F->blocks())
    if (BB->getName() == "h" || BB->getName() == "b")
      LoopBlocks.push_back(BB);
  ValueMap VMap;
  auto Clones = cloneBlocks(*F, LoopBlocks, VMap, ".c");
  ASSERT_EQ(Clones.size(), 2u);
  // The cloned latch branches to the cloned header, not the original.
  BasicBlock *ClonedB = Clones[1];
  auto *Br = cast<BranchInst>(ClonedB->getTerminator());
  EXPECT_EQ(Br->getSuccessor(0), Clones[0]);
  // The cloned phi keeps its external entry (from `entry`) unmapped and
  // remaps the latch entry.
  auto *ClonedPhi = cast<PhiNode>(Clones[0]->front());
  bool SawEntry = false, SawClonedLatch = false;
  for (unsigned K = 0; K < ClonedPhi->getNumIncoming(); ++K) {
    SawEntry |= ClonedPhi->getIncomingBlock(K)->getName() == "entry";
    SawClonedLatch |= ClonedPhi->getIncomingBlock(K) == ClonedB;
  }
  EXPECT_TRUE(SawEntry);
  EXPECT_TRUE(SawClonedLatch);
  // The cloned add uses the cloned phi.
  auto *ClonedAdd =
      cast<Instruction>(*VMap.find(flatKey(LoopBlocks[1]->front())));
  EXPECT_EQ(ClonedAdd->getOperand(0),
            *VMap.find(flatKey(LoopBlocks[0]->front())));
}
