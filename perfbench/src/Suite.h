//===- Suite.h - The seeded 12-profile suite and its pairs ------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-up shared by the workloads: generate the paper's 12 profiles, run
/// the paper pipeline on a clone of each, pair every transformed function
/// with its original, and plant confirmed miscompiles as bug pairs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUITE_H
#define PERFBENCH_SUITE_H

#include "Common.h"

#include "ir/Context.h"
#include "ir/Module.h"
#include "validator/Validator.h"
#include "workload/Profiles.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Pair {
  const llvmmd::Function *Orig = nullptr;
  const llvmmd::Function *Opt = nullptr;
  unsigned Module = 0;
  /// A planted miscompile: the validator must never validate it.
  bool Bug = false;
};

struct Suite {
  /// Declared first so it outlives every module below.
  std::unique_ptr<llvmmd::Context> Ctx =
      std::make_unique<llvmmd::Context>();
  std::vector<std::unique_ptr<llvmmd::Module>> Orig, Opt, Bugged;
  std::vector<Pair> Pairs;
  unsigned Functions = 0;
  unsigned Bugs = 0;
};

/// The paper suite with \p SuiteSeed mixed into every profile's seed
/// (0 keeps the built-in seeds).
std::vector<llvmmd::BenchmarkProfile> suiteProfiles(uint64_t SuiteSeed);

/// Generates the original modules.
void generateSuite(Suite &S, uint64_t SuiteSeed);
/// Optimizes a clone of every module with the paper pipeline and pairs
/// each transformed function (fingerprints differ) with its original.
void optimizeSuite(Suite &S);
/// Pairs the transformed functions of module \p M (S.Opt[M] must exist).
void collectPairs(Suite &S, unsigned M);
/// Plants up to \p PerModule bugs per module, seeded by \p Seed: each is
/// `injectBug` on a clone of an optimized function, kept only once
/// `DifferentialTester` finds an input on which it diverges from the
/// original. Bug pairs follow their module's ordinary pairs.
void plantBugs(Suite &S, uint64_t Seed, unsigned PerModule);

/// Everything deterministic in a verdict.
uint64_t verdictDigest(const llvmmd::ValidationResult &R);

/// A report entry's JSON with the replay-provenance flags removed, so a
/// verdict proven now and one replayed from a cache compare equal.
std::string stripProvenance(std::string Json);

} // namespace perfbench

#endif // PERFBENCH_SUITE_H
