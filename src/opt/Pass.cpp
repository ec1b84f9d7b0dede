//===- Pass.cpp - Pass manager and registry ----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/FunctionAnalyses.h"
#include "ir/Module.h"

#include <sstream>

using namespace llvmmd;

namespace llvmmd {
std::unique_ptr<FunctionPass> createADCEPass();
std::unique_ptr<FunctionPass> createGVNPass();
std::unique_ptr<FunctionPass> createSCCPPass();
std::unique_ptr<FunctionPass> createLICMPass();
std::unique_ptr<FunctionPass> createLoopDeletionPass();
std::unique_ptr<FunctionPass> createLoopUnswitchPass();
std::unique_ptr<FunctionPass> createDSEPass();
std::unique_ptr<FunctionPass> createInstCombinePass();
std::unique_ptr<FunctionPass> createSimplifyCFGPass();
} // namespace llvmmd

namespace {

struct RegistryEntry {
  const char *Name;
  std::unique_ptr<FunctionPass> (*Create)();
};

const RegistryEntry Registry[] = {
    {"adce", createADCEPass},
    {"gvn", createGVNPass},
    {"sccp", createSCCPPass},
    {"licm", createLICMPass},
    {"loop-deletion", createLoopDeletionPass},
    {"loop-unswitch", createLoopUnswitchPass},
    {"dse", createDSEPass},
    {"instcombine", createInstCombinePass},
    {"simplifycfg", createSimplifyCFGPass},
};

} // namespace

std::unique_ptr<FunctionPass> llvmmd::createPass(const std::string &Name) {
  for (const RegistryEntry &E : Registry)
    if (Name == E.Name)
      return E.Create();
  return nullptr;
}

bool PassManager::parsePipeline(const std::string &Pipeline) {
  std::vector<std::unique_ptr<FunctionPass>> Parsed;
  std::stringstream SS(Pipeline);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    if (Name.empty())
      continue;
    auto P = createPass(Name);
    if (!P)
      return false;
    Parsed.push_back(std::move(P));
  }
  for (auto &P : Parsed)
    Passes.push_back(std::move(P));
  return true;
}

std::string llvmmd::pipelineError(const std::string &Pipeline) {
  if (PassManager().parsePipeline(Pipeline))
    return "";
  return "bad pipeline '" + Pipeline + "'";
}

bool FunctionPass::run(Function &F) const {
  FunctionAnalyses FA;
  return run(F, FA);
}

bool PassManager::runPasses(Function &F, FunctionAnalyses &FA) const {
  bool Changed = false;
  for (const auto &P : Passes)
    Changed |= P->run(F, FA);
  return Changed;
}

bool PassManager::run(Function &F) const {
  FunctionAnalyses FA;
  return runPasses(F, FA);
}

bool PassManager::run(Module &M) {
  Builds = {};
  bool Changed = false;
  for (Function *F : M.definedFunctions()) {
    FunctionAnalyses FA;
    Changed |= runPasses(*F, FA);
    Builds.DomTrees += FA.getDomTreeBuilds();
    Builds.LoopInfos += FA.getLoopInfoBuilds();
  }
  return Changed;
}
