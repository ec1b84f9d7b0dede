//===- ModuleLoader.cpp - Unified module ingest ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"

#include "frontend/llvm/LLFrontend.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace llvmmd;

ModuleSpec llvmmd::parseModuleSpec(const std::string &Spec) {
  ModuleSpec S;
  if (Spec == "-") {
    S.From = ModuleSpec::Source::Stdin;
    return S;
  }
  if (Spec.rfind("profile:", 0) == 0) {
    S.From = ModuleSpec::Source::Profile;
    S.Value = Spec.substr(8);
    return S;
  }
  S.From = ModuleSpec::Source::File;
  S.Value = Spec;
  return S;
}

const char *llvmmd::moduleSpecHelp() {
  return "  Module specs (positional arguments / --input values):\n"
         "    FILE           load the file as LLVM .ll text (this tool's\n"
         "                   printed modules are .ll too); a function the\n"
         "                   reader cannot model or that fails the verifier\n"
         "                   is rejected alone and named in the report\n"
         "    -              read one module's text from stdin\n"
         "    profile:NAME   generate the Table-1 benchmark profile NAME\n"
         "  A spec that cannot be loaded (unreadable file, parse error,\n"
         "  unknown profile) prints `error: ...` on stderr and exits 1.\n";
}

namespace {

/// Extracts the leading "line N" of a reader diagnostic.
unsigned parseErrorLine(const std::string &Error) {
  if (Error.rfind("line ", 0) != 0)
    return 0;
  return static_cast<unsigned>(std::atoi(Error.c_str() + 5));
}

/// Reads one module's text, refusing per \p Format; \p Name is the
/// module name; empty leaves it to the text's ModuleID header.
bool loadText(Context &Ctx, std::string_view Src, const std::string &Name,
              ModuleFormat Format, LoadResult &Out) {
  const std::string ModName = Name.empty() ? "module" : Name;
  LoadedModule LM;
  if (Format == ModuleFormat::MiniIR) {
    ParseResult PR = parseModule(Ctx, Src, ModName);
    if (!PR) {
      Out.Error = ModName + ": " + PR.Error;
      Out.ErrorLine = parseErrorLine(PR.Error);
      return false;
    }
    LM.M = std::move(PR.M);
  } else {
    LLImportResult IR = importLLModule(Ctx, Src, ModName);
    if (!IR) {
      Out.Error = ModName + ": " + IR.Error;
      Out.ErrorLine = IR.ErrorLine;
      Out.ErrorCol = IR.ErrorCol;
      return false;
    }
    LM.M = std::move(IR.M);
    for (const LLFunctionReject &R : IR.Rejected)
      LM.Unsupported.push_back({R.Function, R.Reason, R.Detail});
  }
  LM.Name = LM.M->getName();
  Out.Modules.push_back(std::move(LM));
  return true;
}

bool loadOne(Context &Ctx, const ModuleSpec &Spec, LoadResult &Out) {
  std::string Text;
  std::string_view Src = Text;
  std::string Name = Spec.Name;

  switch (Spec.From) {
  case ModuleSpec::Source::Profile: {
    BenchmarkProfile P = getProfile(Spec.Value);
    if (P.FunctionCount == 0) {
      Out.Error = "unknown profile '" + Spec.Value + "'";
      return false;
    }
    if (Spec.ProfileFnCount)
      P.FunctionCount = Spec.ProfileFnCount;
    LoadedModule LM;
    LM.M = generateBenchmark(Ctx, P);
    LM.Name = Name.empty() ? Spec.Value : Name;
    Out.Modules.push_back(std::move(LM));
    return true;
  }
  case ModuleSpec::Source::File: {
    std::ifstream In(Spec.Value);
    if (!In) {
      Out.Error = "cannot open " + Spec.Value;
      return false;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
    Src = Text;
    if (Name.empty())
      Name = Spec.Value;
    break;
  }
  case ModuleSpec::Source::Stdin: {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
    Src = Text;
    if (Name.empty())
      Name = "<stdin>";
    break;
  }
  case ModuleSpec::Source::Inline:
    Src = Spec.Value;
    break;
  }
  return loadText(Ctx, Src, Name, Spec.Format, Out);
}

} // namespace

LoadResult llvmmd::loadModules(Context &Ctx,
                               const std::vector<ModuleSpec> &Specs) {
  LoadResult Out;
  for (const ModuleSpec &Spec : Specs)
    if (!loadOne(Ctx, Spec, Out))
      break;
  return Out;
}

LoadResult llvmmd::loadModule(Context &Ctx, const ModuleSpec &Spec) {
  return loadModules(Ctx, {Spec});
}

LoadResult llvmmd::loadModuleText(Context &Ctx, std::string_view Text,
                                  const std::string &Name,
                                  ModuleFormat Format) {
  LoadResult Out;
  loadText(Ctx, Text, Name, Format, Out);
  return Out;
}

void llvmmd::attachUnsupported(ValidationReport &Report,
                               const LoadedModule &LM) {
  Report.UnsupportedFunctions = LM.Unsupported;
}
