//===- bug_detector.cpp - Catching miscompiles with the validator --------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Translation validation as a compiler-debugging tool, on the engine's
// triage path: we play a buggy optimizer by injecting deterministic
// miscompiles into optimized code, let the ValidationEngine validate every
// pair in parallel, and let the triage subsystem post-process each
// rejection — printing the concrete witness inputs the differential tester
// found for every detected bug.
//
// Exit status 1 flags either direction of disagreement between the
// validator and the interpreter:
//  * a validated pair where the differential tester still finds diverging
//    behavior (a soundness violation), or
//  * a rejected pair whose triage classified it suspected-false-alarm even
//    though a direct differential probe diverges (a triage defect — the
//    probe corpus is the triage corpus, so this must not happen).
//
//   $ ./bug_detector [--input SPEC] [num-trials]
//
// The original module comes from the shared ModuleLoader: by default the
// sjeng profile sized to num-trials functions; --input substitutes any
// module spec (a .ll file, `-` for stdin, or profile:NAME).
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "ir/Cloning.h"
#include "ir/Module.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "triage/DifferentialTester.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

using namespace llvmmd;

int main(int argc, char **argv) {
  unsigned Trials = 24;
  ModuleSpec Spec = parseModuleSpec("profile:sjeng");
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      std::printf("usage: bug_detector [--input SPEC] [num-trials]\n\n%s",
                  moduleSpecHelp());
      return 0;
    } else if (std::strcmp(argv[I], "--input") == 0 && I + 1 < argc)
      Spec = parseModuleSpec(argv[++I]);
    else if (argv[I][0] != '-' || argv[I][1] == '\0') {
      Trials = static_cast<unsigned>(std::atoi(argv[I]));
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 1;
    }
  }

  Spec.ProfileFnCount = Trials;
  Context Ctx;
  LoadResult Loaded = loadModule(Ctx, Spec);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
    return 1;
  }
  std::unique_ptr<Module> M = std::move(Loaded.Modules.front().M);
  auto Opt = cloneModule(*M);

  // The "buggy compiler": a legitimate optimization pipeline followed by a
  // deterministic injected miscompile per function.
  PassManager PM;
  PM.parsePipeline("gvn,sccp");
  std::map<std::string, std::string> Bugs;
  uint64_t Seed = 0x5eed;
  for (Function *FO : Opt->definedFunctions()) {
    PM.run(*FO);
    std::string Bug = injectBug(*FO, Seed++);
    if (!Bug.empty())
      Bugs[FO->getName()] = Bug;
  }

  // Validate + triage the whole module pair in one engine batch.
  EngineConfig C;
  C.Rules.Mask = RS_All;
  C.Triage.Enabled = true;
  ValidationEngine Engine(C);
  ValidationReport Report = Engine.validateModules(*M, *Opt);

  // The cross-check below is only sound because the probe replays exactly
  // the corpus the engine's triage used (buildCorpus is a pure function of
  // the signature, the input count and the corpus bias) — read all three
  // knobs from the config, resolving the bias the same way triagePair does.
  DifferentialTester Probe(*M, *Opt, C.Triage.StepBudget);
  const unsigned ProbeInputs = C.Triage.MaxInputs;
  const CorpusBias ProbeBias = resolveCorpusBias(C.Triage, *M);
  unsigned Caught = 0, Witnessed = 0, Silent = 0, Errors = 0;
  for (const FunctionReportEntry &E : Report.Functions) {
    auto BugIt = Bugs.find(E.Name);
    if (BugIt == Bugs.end())
      continue; // no mutation site: the pair only differs by optimization
    const char *Verdict = E.Validated ? "ACCEPTED" : "rejected";
    std::printf("%-14s %-40s %s\n", E.Name.c_str(), BugIt->second.c_str(),
                Verdict);
    if (E.Validated) {
      // A sound validator may only accept when the bug is unobservable;
      // cross-check with a direct differential probe.
      DiffOutcome O = Probe.test(*M->getFunction(E.Name),
                                 *Opt->getFunction(E.Name), ProbeInputs,
                                 ProbeBias);
      if (O.HasWitness) {
        ++Errors;
        std::printf("  ^^^ SOUNDNESS VIOLATION: accepted, but diverges on:\n");
        for (const std::string &In : O.WitnessRendered)
          std::printf("        %s\n", In.c_str());
        std::printf("      %s\n", O.Divergence.c_str());
      }
      continue;
    }
    ++Caught;
    switch (E.Triage.Classification) {
    case TriageClassification::MiscompileWitnessed: {
      ++Witnessed;
      std::printf("  witness:");
      for (const std::string &In : E.Triage.WitnessInputs)
        std::printf(" %s", In.c_str());
      std::printf("  ->  %s\n", E.Triage.WitnessDivergence.c_str());
      if (E.Triage.Reduced)
        std::printf("  reduced to %llu+%llu instructions\n",
                    static_cast<unsigned long long>(E.Triage.OrigInstsAfter),
                    static_cast<unsigned long long>(E.Triage.OptInstsAfter));
      break;
    }
    case TriageClassification::SuspectedFalseAlarm: {
      // The triage corpus covers the probe corpus, so a diverging probe
      // here means the triage phase itself is broken.
      DiffOutcome O = Probe.test(*M->getFunction(E.Name),
                                 *Opt->getFunction(E.Name), ProbeInputs,
                                 ProbeBias);
      if (O.HasWitness) {
        ++Errors;
        std::printf("  ^^^ TRIAGE DEFECT: suspected-false-alarm but the "
                    "probe diverges (%s)\n",
                    O.Divergence.c_str());
      } else {
        ++Silent; // conservatively rejected, unobservable on the corpus
        std::printf("  no witness on %u inputs: suspected false alarm%s%s\n",
                    E.Triage.InputsTried,
                    E.Triage.MissingRule.empty() ? "" : ", missing rule: ",
                    E.Triage.MissingRule.c_str());
      }
      break;
    }
    default:
      ++Silent;
      break;
    }
  }

  std::printf("\n%u injected bugs: %u rejected (%u with concrete witness), "
              "%u unobservable mutations conservatively rejected, %u "
              "validator/interpreter disagreements\n",
              static_cast<unsigned>(Bugs.size()), Caught, Witnessed, Silent,
              Errors);
  return Errors == 0 ? 0 : 1;
}
