//===- llvm_md_tool.cpp - The paper's validated optimizer, as a tool ----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The §2 pseudocode as a command-line program: read an IR file, run the
// optimization pipeline, validate every function, revert the ones that do
// not check out, and print the certified module plus a report.
//
//   $ ./llvm_md_tool [--input SPEC] [SPEC] [pipeline] [--all-rules]
//                    [--stepwise]
//
// The module comes from the shared ModuleLoader: an LLVM .ll file (real
// `clang`/`opt` output or this project's printed modules), `-` for stdin,
// or profile:NAME. With no spec, a demo module is used. The default
// pipeline is the paper's:
// adce,gvn,sccp,licm,loop-deletion,loop-unswitch,dse.
//
// Runs on the driver subsystem's ValidationEngine (parallel validation,
// fingerprint skip, revert-on-failure). With --stepwise each pass is
// validated individually and a failure names the guilty pass.
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "opt/Pass.h"

#include <cstdio>
#include <cstring>

using namespace llvmmd;

static const char *DemoModule = R"(
@counter = global i32 0
declare i64 @strlen(ptr) readonly

define i32 @fold_me(i32 %a) {
entry:
  %two = add i32 1, 1
  %four = mul i32 %two, 2
  %r = add i32 %a, %four
  ret i32 %r
}

define i32 @hoist_me(i32 %n, ptr %s) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %acc = phi i32 [ 0, %entry ], [ %a2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %len = call i64 @strlen(ptr %s)
  %l = trunc i64 %len to i32
  %a2 = add i32 %acc, %l
  store i32 %a2, ptr @counter
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %acc
}
)";

int main(int argc, char **argv) {
  ModuleSpec Spec;
  Spec.From = ModuleSpec::Source::Inline;
  Spec.Value = DemoModule;
  Spec.Name = "input";
  std::string Pipeline = getPaperPipeline();
  bool AllRules = false;
  bool Stepwise = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      std::printf("usage: llvm_md_tool [--input SPEC] [SPEC] [pipeline] "
                  "[--all-rules] [--stepwise]\n\n%s",
                  moduleSpecHelp());
      return 0;
    } else if (std::strcmp(argv[I], "--all-rules") == 0) {
      AllRules = true;
    } else if (std::strcmp(argv[I], "--stepwise") == 0) {
      Stepwise = true;
    } else if (std::strcmp(argv[I], "--input") == 0 && I + 1 < argc) {
      Spec = parseModuleSpec(argv[++I]);
    } else if (argv[I][0] != '-' &&
               (std::strchr(argv[I], ',') || createPass(argv[I]))) {
      Pipeline = argv[I];
    } else if (argv[I][0] != '-' || argv[I][1] == '\0') {
      Spec = parseModuleSpec(argv[I]);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 1;
    }
  }

  Context Ctx;
  LoadResult Loaded = loadModule(Ctx, Spec);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
    return 1;
  }
  LoadedModule &LM = Loaded.Modules.front();

  PassManager PM;
  if (!PM.parsePipeline(Pipeline)) {
    std::fprintf(stderr, "error: %s\n", pipelineError(Pipeline).c_str());
    return 1;
  }

  EngineConfig C;
  if (AllRules)
    C.Rules.Mask = RS_All;
  C.Granularity = Stepwise ? ValidationGranularity::PerPass
                           : ValidationGranularity::WholePipeline;
  C.RevertFailures = true;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*LM.M, PM);
  attachUnsupported(Run.Report, LM);

  std::printf("; llvm-md: pipeline '%s', rules %s%s\n", Pipeline.c_str(),
              AllRules ? "all (incl. libc/float/global extensions)"
                       : "paper defaults",
              Stepwise ? ", stepwise" : "");
  for (const FunctionReportEntry &FR : Run.Report.Functions) {
    if (!FR.Transformed)
      std::printf(";   %-20s unchanged\n", FR.Name.c_str());
    else if (FR.Validated)
      std::printf(";   %-20s optimized & VALIDATED (%llu rewrites)\n",
                  FR.Name.c_str(),
                  static_cast<unsigned long long>(FR.Result.Rewrites));
    else if (!FR.GuiltyPass.empty())
      std::printf(";   %-20s REVERTED past guilty pass '%s' (%s)\n",
                  FR.Name.c_str(), FR.GuiltyPass.c_str(),
                  FR.Result.Reason.empty() ? "alarm"
                                           : FR.Result.Reason.c_str());
    else
      std::printf(";   %-20s REVERTED (%s)\n", FR.Name.c_str(),
                  FR.Result.Reason.empty() ? "alarm"
                                           : FR.Result.Reason.c_str());
  }
  for (const UnsupportedFunctionEntry &U : Run.Report.UnsupportedFunctions)
    std::printf(";   %-20s NOT IMPORTED: %s%s%s%s\n", U.Function.c_str(),
                U.Reason.c_str(), U.Detail.empty() ? "" : " (",
                U.Detail.c_str(), U.Detail.empty() ? "" : ")");
  std::printf(";   validation rate: %.0f%%  (%.2f ms on %u threads)\n\n",
              100.0 * Run.Report.validationRate(),
              Run.Report.WallMicroseconds / 1000.0, Engine.getThreadCount());
  std::printf("%s", printModule(*Run.Optimized).c_str());
  return 0;
}
