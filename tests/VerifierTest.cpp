//===- VerifierTest.cpp - IR verifier tests ------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/llvm/LLFrontend.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

std::vector<std::string> verify(Function *F) {
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  return Errors;
}

/// The verifier's first message on the one function of \p Text. The
/// reader verifies every body it builds and refuses a failing one as
/// ill-formed, with that message as the detail.
std::string firstVerifierError(const char *Text) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, Text);
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  if (R.Rejected.size() != 1) {
    ADD_FAILURE() << "expected one refused function, got "
                  << R.Rejected.size();
    return "";
  }
  EXPECT_EQ(R.Rejected[0].Reason, llreject::IllFormed);
  EXPECT_TRUE(R.M->getFunction(R.Rejected[0].Function)->isDeclaration());
  return R.Rejected[0].Detail;
}

} // namespace

TEST(Verifier, AcceptsWellFormed) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %a) {
entry:
  %c = icmp sgt i32 %a, 0
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %p = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %p
}
)");
  expectVerified(*M);
}

TEST(Verifier, MissingTerminator) {
  Context Ctx;
  Module M(Ctx);
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}), "f");
  IRBuilder B(Ctx);
  B.setInsertPoint(F->createBlock("entry"));
  B.createAlloca(Ctx.getInt32Ty());
  auto Errors = verify(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(Verifier, EmptyBlock) {
  Context Ctx;
  Module M(Ctx);
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}), "f");
  F->createBlock("entry");
  EXPECT_FALSE(verify(F).empty());
}

TEST(Verifier, PhiMismatchesPredecessors) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createBr(Next);
  B.setInsertPoint(Next);
  PhiNode *P = B.createPhi(I32, "p");
  // Wrong: no entry for the single predecessor.
  B.createRet(P);
  auto Errors = verify(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("phi"), std::string::npos);
}

TEST(Verifier, UseBeforeDefInBlock) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  Value *X = B.createAdd(F->getArg(0), Ctx.getInt32(1), "x");
  Value *Y = B.createAdd(X, Ctx.getInt32(2), "y");
  B.createRet(Y);
  // Manually move y before x to break dominance within the block.
  auto *YI = cast<Instruction>(Y);
  Entry->remove(YI);
  Entry->insert(Entry->begin(), YI);
  auto Errors = verify(F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("use before def"), std::string::npos);
}

TEST(Verifier, LongBlockIsCheckedInOneWalk) {
  // A chain of adds in one block: each uses the one before it. The
  // same-block check is a lookup in the instructions already passed, so
  // this stays linear in the block's length.
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  const unsigned N = 6000;
  std::vector<Instruction *> Chain;
  Value *Prev = F->getArg(0);
  for (unsigned K = 0; K < N; ++K) {
    Prev = B.createAdd(Prev, Ctx.getInt32(1), "x" + std::to_string(K));
    Chain.push_back(cast<Instruction>(Prev));
  }
  B.createRet(Prev);
  EXPECT_TRUE(verify(F).empty());

  // Hoisting x3000 to the block's start puts its use of x2999 before the
  // definition; its own user x3001 still follows it.
  Entry->remove(Chain[3000]);
  Entry->insert(Entry->begin(), Chain[3000]);
  EXPECT_EQ(verify(F), std::vector<std::string>{
                           "function 'f': use before def of 'x2999' in "
                           "'entry'"});
}

TEST(Verifier, UseNotDominatedAcrossBlocks) {
  std::string Error = firstVerifierError(R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  %x = add i32 1, 2
  br label %j
e:
  br label %j
j:
  ret i32 %x
}
)");
  EXPECT_NE(Error.find("dominate"), std::string::npos) << Error;
}

TEST(Verifier, ReturnTypeMismatch) {
  std::string Error = firstVerifierError(R"(
define i32 @f() {
entry:
  ret void
}
)");
  EXPECT_NE(Error.find("return"), std::string::npos) << Error;
}

TEST(Verifier, PhiIncomingDominatesEdge) {
  // The incoming value must dominate the *edge* (i.e. the predecessor),
  // not the phi's block. Loop back edges are the canonical legal case.
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %inc, %h2 ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %h2, label %x
h2:
  %inc = add i32 %i, 1
  br label %h
x:
  ret i32 %i
}
)");
  expectVerified(*M);
}
