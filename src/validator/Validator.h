//===- Validator.h - Translation validation driver --------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validator proper (paper Figure 1): build both functions into one
/// shared value graph, normalize and re-share to fixpoint, and report
/// whether the two functions' state pointers (return value + final memory)
/// merged into the same node.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_VALIDATOR_VALIDATOR_H
#define LLVMMD_VALIDATOR_VALIDATOR_H

#include "normalize/Rules.h"

#include <cstdint>
#include <string>

namespace llvmmd {

class Function;

struct ValidationResult {
  /// True iff semantics preservation was established.
  bool Validated = false;
  /// True if the pair could not be analyzed (irreducible CFG, multiple
  /// returns, ...). Counted as a (false) alarm, like any other failure.
  bool Unsupported = false;
  std::string Reason;

  // Statistics for the evaluation harness.
  uint64_t GraphNodes = 0;    ///< arena size after construction
  uint64_t LiveNodes = 0;     ///< representative nodes after the run
  uint64_t Rewrites = 0;      ///< rule applications that made progress
  uint64_t SharingMerges = 0; ///< merges from sharing maximization
  uint64_t Iterations = 0;    ///< rounds: one rule sweep + one sharing pass
  uint64_t Microseconds = 0;  ///< wall time of the validation
  /// True when the functions' graphs were equal before any normalization —
  /// the O(1) best case of §2.
  bool EqualOnConstruction = false;
};

/// Validates that \p Optimized preserves the semantics of \p Original.
/// Both must have the same signature; they may live in different modules
/// sharing one Context.
ValidationResult validatePair(const Function &Original,
                              const Function &Optimized,
                              const RuleConfig &Config);

} // namespace llvmmd

#endif // LLVMMD_VALIDATOR_VALIDATOR_H
