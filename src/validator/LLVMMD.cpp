//===- LLVMMD.cpp - The validated optimizer driver -----------------------====//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "validator/LLVMMD.h"

#include "ir/Cloning.h"
#include "ir/Module.h"
#include "opt/Pass.h"

#include <chrono>

using namespace llvmmd;

std::unique_ptr<Module> llvmmd::runLLVMMD(const Module &M, PassManager &PM,
                                          const RuleConfig &Config,
                                          LLVMMDReport &Report) {
  auto Start = std::chrono::steady_clock::now();
  std::unique_ptr<Module> Out = cloneModule(M);

  for (Function *F : Out->definedFunctions()) {
    const Function *Orig = M.getFunction(F->getName());
    assert(Orig && "function lost during cloning");
    FunctionReport FR;
    FR.Name = F->getName();
    FR.Transformed = PM.run(*F);
    if (FR.Transformed) {
      FR.Result = validatePair(*Orig, *F, Config);
      FR.Validated = FR.Result.Validated;
      if (!FR.Validated) {
        // `replace fo by fi in output` — revert to the original body.
        F->dropBody();
        cloneFunctionBody(*Orig, *F);
        remapModuleReferences(*F, *Out);
        FR.Reverted = true;
      }
    }
    Report.Functions.push_back(std::move(FR));
  }
  Report.TotalMicroseconds =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count();
  return Out;
}
