//===- LLVMFrontendTest.cpp - .ll-subset importer + ModuleLoader tests ----===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// Covers the `.ll` ingest frontend and the unified ModuleLoader API:
//   - accepted-subset round-trips (import -> print -> reparse -> verify)
//   - every named reject-reason class
//   - per-function isolation (one bad function never sinks the module)
//   - spec grammar of ModuleLoader, verification on load
//   - the frozen fixture pair end to end through the ValidationEngine,
//     with unsupported accounting present in the JSON report
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "frontend/llvm/LLFrontend.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace llvmmd;
using testutil::expectVerified;

namespace {

std::string fixturePath(const char *Name) {
  return std::string(LLVMMD_SOURCE_DIR) + "/tests/fixtures/llvm/" + Name;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Imports, expecting module-level success and zero per-function rejects.
std::unique_ptr<Module> importOrDie(Context &Ctx, const std::string &Text) {
  LLImportResult R = importLLModule(Ctx, Text);
  EXPECT_TRUE(static_cast<bool>(R)) << "import error: " << R.Error;
  for (const LLFunctionReject &Rej : R.Rejected)
    ADD_FAILURE() << "unexpected reject: " << Rej.Function << ": "
                  << Rej.Reason << " (" << Rej.Detail << ")";
  return std::move(R.M);
}

/// Full round-trip: import the .ll text, verify, print, read the printed
/// text back strictly, verify again.
void roundTrip(const std::string &LL) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, LL);
  ASSERT_TRUE(M);
  expectVerified(*M);
  std::string Printed = printModule(*M);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  ASSERT_TRUE(M2);
  expectVerified(*M2);
  EXPECT_EQ(Printed, printModule(*M2));
}

/// Imports text expected to produce exactly one rejected function with the
/// given reason class; the rest of the module must still be intact.
LLFunctionReject expectSingleReject(const std::string &LL,
                                    const char *Reason) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, LL);
  EXPECT_TRUE(static_cast<bool>(R)) << "module-level error: " << R.Error;
  EXPECT_EQ(R.Rejected.size(), 1u);
  if (R.Rejected.empty())
    return LLFunctionReject{};
  EXPECT_EQ(R.Rejected[0].Reason, Reason)
      << "detail: " << R.Rejected[0].Detail;
  // A function rejected for its *body* survives as a declaration; one
  // rejected for its *signature* cannot be represented at all (callers
  // reject with unsupported-callee instead).
  if (R.M) {
    if (Function *F = R.M->getFunction(R.Rejected[0].Function))
      EXPECT_TRUE(F->isDeclaration());
  }
  return R.Rejected[0];
}

//===----------------------------------------------------------------------===//
// Accepted subset round-trips
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, RoundTripIntArithmetic) {
  roundTrip(R"(
define i32 @arith(i32 %a, i32 %b) {
entry:
  %s = add nsw i32 %a, %b
  %d = sub i32 %s, 7
  %m = mul nuw i32 %d, %a
  %q = sdiv i32 %m, %b
  %r = srem i32 %q, 13
  %sh = shl i32 %r, 2
  %lr = lshr exact i32 %sh, 1
  %ar = ashr i32 %lr, 1
  %an = and i32 %ar, 255
  %o = or i32 %an, 16
  %x = xor i32 %o, %a
  ret i32 %x
}
)");
}

TEST(LLVMFrontendTest, RoundTripFloatOpsAndCasts) {
  roundTrip(R"(
define double @f(double %x, double %y, i32 %n) {
entry:
  %a = fadd double %x, %y
  %s = fsub double %a, 1.5
  %m = fmul fast double %s, %x
  %d = fdiv double %m, %y
  %neg = fneg double %d
  %w = sext i32 %n to i64
  %t = trunc i64 %w to i8
  %z = zext i8 %t to i32
  %c = icmp sgt i32 %z, 0
  %sel = select i1 %c, double %neg, double %y
  ret double %sel
}
)");
}

TEST(LLVMFrontendTest, RoundTripControlFlowPhiAndCmp) {
  roundTrip(R"(
define i32 @max(i32 %a, i32 %b) {
entry:
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %r = phi i32 [ %a, %left ], [ %b, %right ]
  ret i32 %r
}
)");
}

TEST(LLVMFrontendTest, RoundTripMemoryGlobalsAndGEP) {
  roundTrip(R"(
@counter = global i32 41, align 4
@table = global [4 x i32] [i32 10, i32 20, i32 30, i32 40]

define i32 @mem(i64 %i) {
entry:
  %p = alloca i32, align 4
  store i32 5, ptr %p
  %v = load i32, ptr %p, align 4
  %g = load i32, ptr @counter
  %slot = getelementptr inbounds [4 x i32], ptr @table, i64 0, i64 %i
  %tv = load i32, ptr %slot
  %s = add i32 %v, %g
  %t = add i32 %s, %tv
  ret i32 %t
}
)");
}

TEST(LLVMFrontendTest, RoundTripCallToKnownDeclaration) {
  roundTrip(R"(
declare i64 @strlen(ptr noundef)

define i64 @len2(ptr %a, ptr %b) {
entry:
  %la = call i64 @strlen(ptr noundef %a)
  %lb = tail call i64 @strlen(ptr %b)
  %s = add i64 %la, %lb
  ret i64 %s
}
)");
}

TEST(LLVMFrontendTest, SwitchLowersToBranchChain) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, R"(
define i32 @classify(i32 %c) {
entry:
  switch i32 %c, label %dflt [
    i32 0, label %a
    i32 1, label %b
  ]
a:
  br label %out
b:
  br label %out
dflt:
  br label %out
out:
  %r = phi i32 [ 10, %a ], [ 20, %b ], [ -1, %dflt ]
  ret i32 %r
}
)");
  ASSERT_TRUE(M);
  expectVerified(*M);
  // The printed module must contain no `switch` — only br/condbr.
  std::string Printed = printModule(*M);
  EXPECT_EQ(Printed.find("switch"), std::string::npos);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  expectVerified(*M2);
}

TEST(LLVMFrontendTest, ForwardReferencesResolve) {
  // %v is used in a phi before its textual definition.
  roundTrip(R"(
define i32 @fwd(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %done = icmp sge i32 %next, %n
  br i1 %done, label %out, label %loop
out:
  ret i32 %i
}
)");
}

TEST(LLVMFrontendTest, RealWorldNoiseIsTolerated) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, R"(
; ModuleID = 'noise.c'
source_filename = "noise.c"
target datalayout = "e-m:e-i64:64-f80:128-n8:16:32:64-S128"
target triple = "x86_64-unknown-linux-gnu"

@g = dso_local local_unnamed_addr global i32 0, align 4

; Function Attrs: nounwind uwtable
define dso_local i32 @noisy(i32 noundef %a) local_unnamed_addr #0 {
entry:
  %v = load i32, ptr @g, align 4, !tbaa !5
  %s = add nsw i32 %v, %a
  ret i32 %s
}

attributes #0 = { nounwind uwtable "target-cpu"="x86-64" }

!llvm.module.flags = !{!0}
!0 = !{i32 1, !"wchar_size", i32 4}
!5 = !{!6, !6, i64 0}
!6 = !{!"int", !7, i64 0}
!7 = !{!"omnipotent char", !8, i64 0}
!8 = !{!"Simple C/C++ TBAA"}
)");
  ASSERT_TRUE(M);
  expectVerified(*M);
  Function *F = M->getFunction("noisy");
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->isDeclaration());
}

//===----------------------------------------------------------------------===//
// Memory effects of declarations: inline, through attribute groups, and the
// LLVM 16 memory(...) spelling
//===----------------------------------------------------------------------===//

/// Imports \p LL and returns the memory effect of declaration \p Name.
MemoryEffect declEffect(const std::string &LL, const char *Name) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, LL);
  Function *F = M ? M->getFunction(Name) : nullptr;
  EXPECT_NE(F, nullptr) << Name;
  return F ? F->getMemoryEffect() : MemoryEffect::ReadWrite;
}

TEST(LLVMFrontendTest, AttributeGroupAfterDeclaration) {
  // What `opt` prints: the group comes at the end of the module.
  EXPECT_EQ(declEffect(R"(
declare i64 @my_len(ptr) #0

attributes #0 = { nofree nounwind readonly willreturn }
)",
                       "my_len"),
            MemoryEffect::ReadOnly);
}

TEST(LLVMFrontendTest, AttributeGroupBeforeDeclaration) {
  EXPECT_EQ(declEffect(R"(
attributes #1 = { nounwind readnone "frame-pointer"="all" }

declare i32 @my_abs(i32) local_unnamed_addr #1
)",
                       "my_abs"),
            MemoryEffect::ReadNone);
}

TEST(LLVMFrontendTest, MemoryAttributeInline) {
  const char *LL = R"(
declare i64 @reads(ptr) memory(read)
declare i32 @pure(i32) nounwind memory(none)
)";
  EXPECT_EQ(declEffect(LL, "reads"), MemoryEffect::ReadOnly);
  EXPECT_EQ(declEffect(LL, "pure"), MemoryEffect::ReadNone);
}

TEST(LLVMFrontendTest, MemoryAttributeInGroup) {
  const char *LL = R"(
declare i64 @reads(ptr) #0
declare i32 @pure(i32) #1

attributes #0 = { nounwind willreturn memory(read) }
attributes #1 = { memory(none) nounwind }
)";
  EXPECT_EQ(declEffect(LL, "reads"), MemoryEffect::ReadOnly);
  EXPECT_EQ(declEffect(LL, "pure"), MemoryEffect::ReadNone);
}

TEST(LLVMFrontendTest, UnknownGroupOrWriteEffectStaysClobbering) {
  // Near misses: a group that is never defined, memory(write), and a
  // location-qualified read say nothing about all of memory.
  const char *LL = R"(
declare i64 @nogroup(ptr) #7
declare void @writes(ptr) memory(write)
declare i64 @argread(ptr) #0
declare void @plain(ptr) #1

attributes #0 = { memory(argmem: read) }
attributes #1 = { nounwind willreturn }
)";
  for (const char *Name : {"nogroup", "writes", "argread", "plain"})
    EXPECT_EQ(declEffect(LL, Name), MemoryEffect::ReadWrite) << Name;
}

//===----------------------------------------------------------------------===//
// Reject-reason classes — one test per class
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, RejectVectorType) {
  expectSingleReject(R"(
define <4 x i32> @v(<4 x i32> %a) {
entry:
  ret <4 x i32> %a
}
)",
                     llreject::VectorType);
}

TEST(LLVMFrontendTest, RejectAggregateType) {
  expectSingleReject(R"(
define i32 @s({ i32, i32 } %p) {
entry:
  ret i32 0
}
)",
                     llreject::AggregateType);
}

TEST(LLVMFrontendTest, RejectUnsupportedType) {
  LLFunctionReject R = expectSingleReject(R"(
define half @h(half %x) {
entry:
  ret half %x
}
)",
                                          llreject::UnsupportedType);
  EXPECT_NE(R.Detail.find("half"), std::string::npos);
}

TEST(LLVMFrontendTest, RejectUnsupportedInstruction) {
  LLFunctionReject R = expectSingleReject(R"(
define i32 @c(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}
)",
                                          llreject::UnsupportedInstruction);
  EXPECT_NE(R.Detail.find("fptosi"), std::string::npos);
}

TEST(LLVMFrontendTest, StrictParseReportsTheFirstRefusalInTheText) {
  // The body refusal comes first in the text, but the importer finds the
  // varargs signature while scanning, before it reads any body.
  const char *Text = R"(define i32 @c(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}

define i32 @v(i32 %a, ...) {
entry:
  ret i32 %a
}
)";
  Context Ctx;
  LLImportResult IR = importLLModule(Ctx, Text);
  ASSERT_EQ(IR.Rejected.size(), 2u);
  EXPECT_EQ(IR.Rejected[0].Reason, llreject::VarargsCall);
  EXPECT_EQ(IR.Rejected[0].Line, 7u);
  ParseResult R = parseModule(Ctx, Text);
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.Error.rfind("line 3: " +
                              std::string(llreject::UnsupportedInstruction) +
                              ": ",
                          0),
            0u)
      << R.Error;
}

TEST(LLVMFrontendTest, RejectUnsupportedPredicate) {
  // Unordered fcmp predicates are outside the subset.
  expectSingleReject(R"(
define i1 @u(double %a, double %b) {
entry:
  %c = fcmp uno double %a, %b
  ret i1 %c
}
)",
                     llreject::UnsupportedPredicate);
}

TEST(LLVMFrontendTest, RejectMultiIndexGEP) {
  expectSingleReject(R"(
define ptr @g(ptr %p, i64 %i, i64 %j) {
entry:
  %q = getelementptr i32, ptr %p, i64 %i, i64 %j
  ret ptr %q
}
)",
                     llreject::MultiIndexGEP);
}

TEST(LLVMFrontendTest, RejectIndirectCall) {
  expectSingleReject(R"(
define i32 @ind(ptr %fp) {
entry:
  %r = call i32 %fp(i32 1)
  ret i32 %r
}
)",
                     llreject::IndirectCall);
}

TEST(LLVMFrontendTest, RejectVarargsCall) {
  expectSingleReject(R"(
declare i32 @printf(ptr, ...)

define void @p(ptr %fmt) {
entry:
  %r = call i32 (ptr, ...) @printf(ptr %fmt)
  ret void
}
)",
                     llreject::VarargsCall);
}

TEST(LLVMFrontendTest, RejectUnsupportedCallee) {
  LLFunctionReject R = expectSingleReject(R"(
define i32 @caller(i32 %x) {
entry:
  %r = call i32 @no_such_fn(i32 %x)
  ret i32 %r
}
)",
                                          llreject::UnsupportedCallee);
  EXPECT_NE(R.Detail.find("no_such_fn"), std::string::npos);
}

TEST(LLVMFrontendTest, RejectUnsupportedConstant) {
  // A constant expression operand is outside the subset.
  expectSingleReject(R"(
@g = global [4 x i32] zeroinitializer

define i32 @ce() {
entry:
  %v = load i32, ptr getelementptr inbounds ([4 x i32], ptr @g, i64 0, i64 2)
  ret i32 %v
}
)",
                     llreject::UnsupportedConstant);
}

TEST(LLVMFrontendTest, RejectSyntaxErrorPerFunction) {
  // Garbage inside one function body rejects that function, not the module.
  expectSingleReject(R"(
define i32 @bad(i32 %a) {
entry:
  %v = frobnicate i32 %a
  ret i32 %v
}
)",
                     llreject::SyntaxError);
}

TEST(LLVMFrontendTest, ModuleLevelErrorHasLineInfo) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, "define i32 @f(\n@@@garbage@@@\n");
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_FALSE(R.Error.empty());
  EXPECT_GT(R.ErrorLine, 0u);
}

//===----------------------------------------------------------------------===//
// Per-function isolation
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, OneBadFunctionDoesNotSinkTheModule) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, R"(
define i32 @good1(i32 %a) {
entry:
  %v = add i32 %a, 1
  ret i32 %v
}

define i32 @bad(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}

define i32 @good2(i32 %a) {
entry:
  %v = mul i32 %a, 3
  ret i32 %v
}
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "bad");
  EXPECT_EQ(R.Rejected[0].Reason, llreject::UnsupportedInstruction);

  Function *G1 = R.M->getFunction("good1");
  Function *G2 = R.M->getFunction("good2");
  Function *B = R.M->getFunction("bad");
  ASSERT_TRUE(G1 && G2 && B);
  EXPECT_FALSE(G1->isDeclaration());
  EXPECT_FALSE(G2->isDeclaration());
  EXPECT_TRUE(B->isDeclaration());
  expectVerified(*R.M);

  // And the engine produces verdicts for exactly the two good functions.
  EngineConfig Cfg;
  Cfg.Threads = 1;
  ValidationEngine Engine(Cfg);
  EngineRun Run = Engine.run(*R.M, getPaperPipeline());
  EXPECT_EQ(Run.Report.total(), 2u);
}

TEST(LLVMFrontendTest, CallToRejectedFunctionStaysWellFormed) {
  // A rejected function survives as a declaration precisely so that later
  // callers still import: its rejection is isolated, not contagious.
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, R"(
define i32 @bad(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}

define i32 @caller(double %x) {
entry:
  %v = call i32 @bad(double %x)
  ret i32 %v
}
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "bad");
  Function *Caller = R.M->getFunction("caller");
  ASSERT_NE(Caller, nullptr);
  EXPECT_FALSE(Caller->isDeclaration());
  expectVerified(*R.M);
}

//===----------------------------------------------------------------------===//
// ModuleLoader spec grammar
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, SpecGrammarParsing) {
  ModuleSpec S1 = parseModuleSpec("tests/x.ll");
  EXPECT_EQ(S1.From, ModuleSpec::Source::File);
  EXPECT_EQ(S1.Value, "tests/x.ll");

  ModuleSpec S2 = parseModuleSpec("-");
  EXPECT_EQ(S2.From, ModuleSpec::Source::Stdin);

  ModuleSpec S3 = parseModuleSpec("profile:gcc");
  EXPECT_EQ(S3.From, ModuleSpec::Source::Profile);
  EXPECT_EQ(S3.Value, "gcc");
}

TEST(LLVMFrontendTest, LoaderReadsClangAndPrintedTextAndProfiles) {
  Context Ctx;
  ModuleSpec LL;
  LL.From = ModuleSpec::Source::Inline;
  LL.Value = "define dso_local i32 @f(i32 noundef %a) {\nentry:\n  %v = add "
             "nsw i32 %a, 1\n  ret i32 %v\n}\n";
  LoadResult R1 = loadModule(Ctx, LL);
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.Error;
  ASSERT_EQ(R1.Modules.size(), 1u);

  ModuleSpec Mini;
  Mini.From = ModuleSpec::Source::Inline;
  Mini.Value = "define i32 @g(i32 %a) {\nentry:\n  %v = add i32 %a, 1\n  "
               "ret i32 %v\n}\n";
  LoadResult R2 = loadModule(Ctx, Mini);
  ASSERT_TRUE(static_cast<bool>(R2)) << R2.Error;

  ModuleSpec Prof = parseModuleSpec("profile:gcc");
  Prof.ProfileFnCount = 4;
  LoadResult R3 = loadModule(Ctx, Prof);
  ASSERT_TRUE(static_cast<bool>(R3)) << R3.Error;
  EXPECT_TRUE(R3.Modules[0].Unsupported.empty());
}

TEST(LLVMFrontendTest, LoaderErrorsCarryLineDiagnostics) {
  Context Ctx;
  ModuleSpec Bad;
  Bad.From = ModuleSpec::Source::Inline;
  Bad.Value = "target triple = \"x\"\ndefine i32 @f(\n@@@\n";
  Bad.Name = "bad.ll";
  LoadResult R = loadModule(Ctx, Bad);
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.Error.find("bad.ll"), std::string::npos);
  EXPECT_NE(R.Error.find("line"), std::string::npos);
  EXPECT_GT(R.ErrorLine, 0u);

  LoadResult R2 = loadModule(Ctx, parseModuleSpec("profile:nonexistent"));
  EXPECT_FALSE(static_cast<bool>(R2));

  LoadResult R3 =
      loadModule(Ctx, parseModuleSpec("/no/such/dir/missing.ll"));
  EXPECT_FALSE(static_cast<bool>(R3));
  EXPECT_NE(R3.Error.find("missing.ll"), std::string::npos);
}

TEST(LLVMFrontendTest, LoaderStopsAtFirstError) {
  Context Ctx;
  std::vector<ModuleSpec> Specs;
  ModuleSpec Good;
  Good.From = ModuleSpec::Source::Inline;
  Good.Value = "define i32 @ok() {\nentry:\n  ret i32 1\n}\n";
  Specs.push_back(Good);
  Specs.push_back(parseModuleSpec("profile:nonexistent"));
  Specs.push_back(Good);
  LoadResult R = loadModules(Ctx, Specs);
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.Modules.size(), 1u);
}

TEST(LLVMFrontendTest, LoaderRefusesIllFormedBodies) {
  // Printed sjeng with two lines of sjeng_f10 exchanged: a loop-header phi
  // lands in the preheader and an `and` lands above the header's other
  // phi. Every token is still valid, so only the verifier sees it, and the
  // passes assume well-formed input (LoopDeletion crashes on this body).
  Context Ctx;
  std::string Text = printModule(*generateBenchmark(Ctx, getProfile("sjeng")));
  const std::string Phi =
      "  %i.3 = phi i32 [ 0, %exit14 ], [ %inc.3, %latch17 ]\n";
  const std::string And = "  %n.2 = and i32 %arg0, 15\n";
  size_t P = Text.find(Phi);
  ASSERT_NE(P, std::string::npos);
  size_t A = Text.rfind(And, P); // the same function's `and`
  ASSERT_NE(A, std::string::npos);
  Text = Text.substr(0, A) + Phi +
         Text.substr(A + And.size(), P - A - And.size()) + And +
         Text.substr(P + Phi.size());

  ModuleSpec Spec;
  Spec.From = ModuleSpec::Source::Inline;
  Spec.Value = Text;
  LoadResult R = loadModule(Ctx, Spec);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  const LoadedModule &LM = R.Modules[0];
  ASSERT_EQ(LM.Unsupported.size(), 1u);
  EXPECT_EQ(LM.Unsupported[0].Function, "sjeng_f10");
  EXPECT_EQ(LM.Unsupported[0].Reason, llreject::IllFormed);
  EXPECT_TRUE(LM.M->getFunction("sjeng_f10")->isDeclaration());
  expectVerified(*LM.M);
  // What is left optimizes and validates.
  EngineConfig Cfg;
  Cfg.Threads = 1;
  ValidationEngine Engine(Cfg);
  EXPECT_EQ(Engine.run(*LM.M, getPaperPipeline()).Report.total(), 11u);

  // The strict policy fails the load instead, naming the line.
  Spec.Format = ModuleFormat::MiniIR;
  LoadResult Strict = loadModule(Ctx, Spec);
  EXPECT_FALSE(static_cast<bool>(Strict));
  EXPECT_NE(Strict.Error.find("ill-formed"), std::string::npos) << Strict.Error;
  EXPECT_GT(Strict.ErrorLine, 0u);
}

//===----------------------------------------------------------------------===//
// Frozen fixture pair end to end
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, FixturePairValidatesEndToEnd) {
  Context Ctx;
  std::vector<ModuleSpec> Specs = {
      parseModuleSpec(fixturePath("kernels_O0.ll")),
      parseModuleSpec(fixturePath("kernels_opt.ll")),
  };
  LoadResult Loaded = loadModules(Ctx, Specs);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.Error;
  ASSERT_EQ(Loaded.Modules.size(), 2u);

  // Both fixtures carry exactly one function outside the subset: to_int.
  for (const LoadedModule &LM : Loaded.Modules) {
    ASSERT_EQ(LM.Unsupported.size(), 1u);
    EXPECT_EQ(LM.Unsupported[0].Function, "to_int");
    EXPECT_EQ(LM.Unsupported[0].Reason, llreject::UnsupportedInstruction);
    expectVerified(*LM.M);
  }

  EngineConfig Cfg;
  Cfg.Threads = 1;
  ValidationEngine Engine(Cfg);
  std::vector<const Module *> Ptrs;
  for (const LoadedModule &LM : Loaded.Modules)
    Ptrs.push_back(LM.M.get());
  SuiteRun Run = Engine.runSuite(Ptrs, getPaperPipeline());
  ASSERT_EQ(Run.Report.Modules.size(), 2u);
  for (size_t I = 0; I < Run.Report.Modules.size(); ++I)
    attachUnsupported(Run.Report.Modules[I], Loaded.Modules[I]);

  // Every transformed pair must validate; nothing reverts.
  EXPECT_EQ(Run.Report.validated(), Run.Report.transformed());
  EXPECT_GT(Run.Report.transformed(), 0u);
  EXPECT_EQ(Run.Report.reverted(), 0u);
  // Six importable functions per module.
  for (const ValidationReport &MR : Run.Report.Modules)
    EXPECT_EQ(MR.total(), 6u);

  // Unsupported accounting lands in all three emitters.
  EXPECT_EQ(Run.Report.unsupportedFunctions(), 2u);
  std::string JSON = suiteToJSON(Run.Report);
  EXPECT_NE(JSON.find("\"unsupported_functions\": 1"), std::string::npos);
  EXPECT_NE(JSON.find("\"unsupported_functions\": 2"), std::string::npos);
  EXPECT_NE(JSON.find("\"reason\": \"unsupported-instruction\""),
            std::string::npos);
  std::string Text = suiteToText(Run.Report);
  EXPECT_NE(Text.find("2 function(s) rejected by the ingest frontend"),
            std::string::npos);
  std::string CSV = suiteToCSV(Run.Report);
  EXPECT_NE(CSV.find("unsupported_reason"), std::string::npos);
  EXPECT_NE(CSV.find("unsupported-instruction"), std::string::npos);
}

TEST(LLVMFrontendTest, FixtureRoundTripsThroughPrinter) {
  // The O0 fixture (minus its known to_int reject) must survive
  // import -> print -> strict reparse -> verify.
  Context Ctx;
  LLImportResult R =
      importLLModule(Ctx, readFileOrDie(fixturePath("kernels_O0.ll")));
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "to_int");
  expectVerified(*R.M);
  std::string Printed = printModule(*R.M);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  expectVerified(*M2);
  EXPECT_EQ(Printed, printModule(*M2));
}

} // namespace
