//===- RuleGapAttributor.h - Name the rule a false alarm misses -*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explains a (reduced) false alarm in the validator's own vocabulary.
/// Two mechanisms, both deterministic:
///
///  * Structural diff — build both functions into one shared value graph,
///    normalize to fixpoint under the configured rules, then walk the two
///    root cones in lockstep and report the first node pair whose heads
///    (kind, opcode, predicate, type, scalar payload, arity) disagree:
///    the exact spot where normalization got stuck.
///  * Rule probing — re-validate the pair with each disabled rule family
///    (Rules.h) enabled one at a time; the first single family whose
///    addition makes the pair validate *is* the gap, checked rather than
///    guessed. When no single family suffices, RS_All is probed so "more
///    than one extension needed" is distinguished from "no rule we have
///    helps" (a candidate for a new rule set — the paper's §5 discussion).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_TRIAGE_RULEGAPATTRIBUTOR_H
#define LLVMMD_TRIAGE_RULEGAPATTRIBUTOR_H

#include "normalize/Rules.h"

#include <string>

namespace llvmmd {

class Function;

struct RuleGapOutcome {
  bool Ran = false;
  /// A head-diverging node pair was found (false when the cones are
  /// head-congruent but unmerged, e.g. cyclic μ values).
  bool Diverged = false;
  std::string NodeA, NodeB; ///< rendered heads of the first diverging pair
  /// The single disabled family whose addition validates the pair (0/""
  /// when none does).
  unsigned MissingRuleMask = 0;
  std::string MissingRule;
  /// No single family sufficed but RS_All validates the pair.
  bool ClosedByAllRules = false;
};

/// Diffs and probes the rejected pair under \p Rules (Rules.M must point
/// at the module providing \p A's globals).
RuleGapOutcome attributeRuleGap(const Function &A, const Function &B,
                                const RuleConfig &Rules);

} // namespace llvmmd

#endif // LLVMMD_TRIAGE_RULEGAPATTRIBUTOR_H
