//===- Pass.h - Function pass interface and pass manager --------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer driver: function passes, a sequential pass manager, and a
/// registry that builds the paper's pipeline from a comma-separated string
/// ("adce,gvn,sccp,licm,loop-deletion,loop-unswitch,dse"). The passes of
/// one function's pipeline share one FunctionAnalyses, so a dominator tree
/// or loop info is built once per CFG state instead of once per pass.
///
/// A pass keeps no state between runs: `run` is const, and whatever a run
/// needs (tables, worklists, scratch) lives in a per-run object, as SCCP's
/// solver and GVN's numbering do. So one PassManager may run on many
/// threads at once, each on its own function; the validation engine's
/// optimizer tasks all share the caller's.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_OPT_PASS_H
#define LLVMMD_OPT_PASS_H

#include <memory>
#include <string>
#include <vector>

namespace llvmmd {

class Function;
class FunctionAnalyses;
class Module;

/// A transformation over one function.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;

  virtual const char *getName() const = 0;

  /// Transforms \p F in place; returns true iff something changed. CFG
  /// analyses come from \p FA, the cache of \p F's pipeline. Writes only
  /// \p F, \p FA and the Context's lock-striped constant tables, so
  /// concurrent runs on different functions are safe.
  virtual bool run(Function &F, FunctionAnalyses &FA) const = 0;

  /// Runs this pass alone, with a cache that lives for this call.
  bool run(Function &F) const;
};

/// Creates a pass by its pipeline name; null for unknown names. Known:
/// adce, gvn, sccp, licm, loop-deletion, loop-unswitch, dse, instcombine,
/// simplifycfg.
std::unique_ptr<FunctionPass> createPass(const std::string &Name);

/// Empty if \p Pipeline parses, else "bad pipeline '<Pipeline>'": the
/// message every front door refuses an unknown pass with.
std::string pipelineError(const std::string &Pipeline);

/// Runs passes in order over every defined function of a module.
class PassManager {
public:
  /// Parses a comma-separated pipeline; returns false on an unknown pass
  /// name (and leaves the manager unchanged).
  bool parsePipeline(const std::string &Pipeline);

  void addPass(std::unique_ptr<FunctionPass> P) {
    Passes.push_back(std::move(P));
  }

  size_t size() const { return Passes.size(); }

  /// Runs the pipeline on one function, with one analysis cache for all of
  /// its passes; returns true iff any pass changed it. Writes no counters,
  /// so threads may share one manager, each on its own function.
  bool run(Function &F) const;

  /// Runs the pipeline on every defined function and records the analysis
  /// builds below.
  bool run(Module &M);

  /// Dominator trees and loop infos the passes built during the last
  /// run(Module&). A deterministic measure of analysis work: the same on
  /// every machine.
  struct AnalysisBuilds {
    unsigned DomTrees = 0;
    unsigned LoopInfos = 0;
  };
  const AnalysisBuilds &getAnalysisBuilds() const { return Builds; }

  const std::vector<std::unique_ptr<FunctionPass>> &passes() const {
    return Passes;
  }

private:
  /// run(Function&) with the caller's analysis cache.
  bool runPasses(Function &F, FunctionAnalyses &FA) const;

  std::vector<std::unique_ptr<FunctionPass>> Passes;
  AnalysisBuilds Builds;
};

/// The paper's evaluation pipeline (§5.1).
inline const char *getPaperPipeline() {
  return "adce,gvn,sccp,licm,loop-deletion,loop-unswitch,dse";
}

} // namespace llvmmd

#endif // LLVMMD_OPT_PASS_H
