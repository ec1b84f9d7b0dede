//===- ParserPrinterTest.cpp - Textual IR round-trip tests --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/IRBuilder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

TEST(Parser, SimpleFunction) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %c = icmp slt i32 %x, 10
  %s = select i1 %c, i32 %a, i32 %b
  ret i32 %s
}
)");
  Function *F = M->getFunction("f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->getNumArgs(), 2u);
  EXPECT_EQ(F->getNumBlocks(), 1u);
  EXPECT_EQ(F->getInstructionCount(), 4u);
  expectVerified(*M);
}

TEST(Parser, AllInstructionKinds) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
declare i64 @strlen(ptr) readonly
declare i32 @abs(i32) readnone
@g = global i32 41
@k = constant float 2.5

define i32 @f(i32 %a, float %f, ptr %p) {
entry:
  %b = sub i32 %a, 1
  %c = mul i32 %b, %b
  %d = sdiv i32 %c, 3
  %e = and i32 %d, 255
  %s = shl i32 %e, 2
  %t = lshr i32 %s, 1
  %u = ashr i32 %t, 1
  %v = xor i32 %u, -1
  %w = or i32 %v, 7
  %r = urem i32 %w, 13
  %q = udiv i32 %r, 2
  %fa = fadd float %f, 1.5
  %fm = fmul float %fa, 2.0
  %fc = fcmp ogt float %fm, 0.5
  %z = zext i1 %fc to i32
  %sx = sext i32 %z to i64
  %tr = trunc i64 %sx to i8
  %zz = zext i8 %tr to i32
  %al = alloca i32, i64 4
  %gp = getelementptr i32, ptr %al, i64 2
  store i32 %zz, ptr %gp
  %ld = load i32, ptr %gp
  %len = call i64 @strlen(ptr %p)
  %l32 = trunc i64 %len to i32
  %ab = call i32 @abs(i32 %l32)
  %gv = load i32, ptr @g
  %cmp = icmp ult i32 %ld, %gv
  br i1 %cmp, label %one, label %two
one:
  br label %done
two:
  br label %done
done:
  %ph = phi i32 [ %ab, %one ], [ %gv, %two ]
  ret i32 %ph
}
)");
  expectVerified(*M);
  EXPECT_EQ(M->getFunction("strlen")->getMemoryEffect(),
            MemoryEffect::ReadOnly);
  EXPECT_EQ(M->getFunction("abs")->getMemoryEffect(),
            MemoryEffect::ReadNone);
  EXPECT_TRUE(M->getGlobal("k")->isConstantGlobal());
  EXPECT_FALSE(M->getGlobal("g")->isConstantGlobal());
}

TEST(Parser, ForwardReferences) {
  // Blocks and values may be referenced before their definitions (phi
  // back-edges, or simply blocks printed out of order).
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %out
body:
  %next = add i32 %i, 1
  br label %header
out:
  ret i32 %i
}
)");
  expectVerified(*M);
}

TEST(Parser, Errors) {
  Context Ctx;
  EXPECT_FALSE(parseModule(Ctx, "define i32 @f( {"));
  EXPECT_FALSE(parseModule(Ctx, "define i32 @f() {\nentry:\n ret i32 %x\n}"));
  EXPECT_FALSE(parseModule(Ctx, "define wat @f() {\nentry:\n ret void\n}"));
  EXPECT_FALSE(
      parseModule(Ctx, "define i32 @f() {\nentry:\n %x = frob i32 1, 2\n}"));
  // Type mismatch on resolved forward reference.
  EXPECT_FALSE(parseModule(Ctx, R"(
define i32 @f() {
entry:
  br label %next
next:
  %p = phi i32 [ %v, %entry ]
  %v.0 = add i32 1, 2
  ret i32 %p
}
)"));
  // Duplicate definitions.
  EXPECT_FALSE(parseModule(Ctx, R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %x = add i32 %a, 2
  ret i32 %x
}
)"));
}

TEST(Printer, RoundTripStable) {
  Context Ctx;
  const char *Src = R"(
@g = global i32 7
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, -3
  %c = icmp eq i32 %x, 0
  br i1 %c, label %t, label %e
t:
  %l = load i32, ptr @g
  br label %j
e:
  store i32 %x, ptr @g
  br label %j
j:
  %p = phi i32 [ %l, %t ], [ 0, %e ]
  ret i32 %p
}
)";
  auto M1 = parseOrDie(Ctx, Src);
  std::string P1 = printModule(*M1);
  auto M2 = parseOrDie(Ctx, P1);
  std::string P2 = printModule(*M2);
  EXPECT_EQ(P1, P2) << "printer output must be a fixpoint under re-parsing";
}

TEST(Printer, FloatsRoundTrip) {
  Context Ctx;
  auto M1 = parseOrDie(Ctx, R"(
define float @f() {
entry:
  %a = fadd float 0.1, 1e-9
  %b = fmul float %a, -123456789.25
  ret float %b
}
)");
  std::string P1 = printModule(*M1);
  auto M2 = parseOrDie(Ctx, P1);
  EXPECT_EQ(P1, printModule(*M2));
}

TEST(Printer, UnnamedValuesGetStableNames) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
  IRBuilder B(Ctx);
  B.setInsertPoint(F->createBlock(""));
  Value *X = B.createAdd(F->getArg(0), Ctx.getInt32(1));
  Value *Y = B.createMul(X, X);
  B.createRet(Y);
  std::string Text = printFunction(*F);
  // Unnamed values are numbered; the output must re-parse.
  auto M2 = parseOrDie(Ctx, Text);
  expectVerified(*M2);
}

class WorkloadRoundTrip : public ::testing::TestWithParam<const char *> {};

// Every function of every suite profile reads back through the one reader
// and prints identically.
TEST_P(WorkloadRoundTrip, PrintParsePrintFixpoint) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, getProfile(GetParam()));
  expectVerified(*M);
  std::string P1 = printModule(*M);
  auto M2 = parseOrDie(Ctx, P1);
  expectVerified(*M2);
  EXPECT_EQ(P1, printModule(*M2));
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, WorkloadRoundTrip,
                         ::testing::Values("sqlite", "bzip2", "gcc", "lbm",
                                           "perlbench", "sjeng", "milc",
                                           "hmmer", "mcf", "h264ref",
                                           "libquantum", "sphinx"));
