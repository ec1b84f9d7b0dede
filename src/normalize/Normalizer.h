//===- Normalizer.h - Value-graph rewrite engine ----------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies the enabled rewrite rule sets to a shared value graph until a
/// true fixpoint, merged roots, or the round budget. Rules are oriented the
/// way the LLVM optimizer rewrites (paper §4.1): the engine only ever
/// rewrites a node *into* its more-optimized form, which keeps the number
/// of rewrites proportional to the number of transformations the optimizer
/// performed, and keeps any two rules from undoing each other.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_NORMALIZE_NORMALIZER_H
#define LLVMMD_NORMALIZE_NORMALIZER_H

#include "normalize/Rules.h"
#include "vg/ValueGraph.h"

#include <array>
#include <vector>

namespace llvmmd {

/// What normalization did. A rule application counts as a rewrite only
/// when it made progress: it created a node or changed the union-find
/// partition. So a round with no rewrites and no sharing merges is a true
/// fixpoint: the next round would see the same graph.
struct NormalizeStats {
  unsigned Rewrites = 0;
  unsigned SharingMerges = 0;
  /// Rounds run: one rule sweep plus one sharing pass each.
  unsigned Iterations = 0;
  /// Rule applications that changed nothing (a rewrite into the node's own
  /// class). Any such fire is a rule cycle in the making; it must stay 0.
  unsigned NoProgressFires = 0;
  /// Work counters, kept out of reports: the nodes the rule sweeps
  /// examined, and the roots that entered the sharing passes' initial
  /// partitions.
  unsigned NodesVisited = 0;
  unsigned SharingExamined = 0;
  /// normalizeToFixpoint hit RuleConfig::MaxIterations with the roots
  /// still apart and the graph still changing.
  bool BudgetExhausted = false;
  /// Progress-making applications per rule, indexed by RewriteRule; they
  /// sum to Rewrites.
  std::array<unsigned, NumRewriteRules> RuleFires{};

  unsigned fires(RewriteRule R) const {
    return RuleFires[static_cast<unsigned>(R)];
  }
  NormalizeStats &operator+=(const NormalizeStats &O);
};

/// Runs exactly one round over the live cones of \p Roots (Figure 1's
/// rewrite-then-re-share step): one sweep of the enabled rules, then one
/// sharing-maximization pass.
NormalizeStats normalizeGraph(ValueGraph &G, const std::vector<NodeId> &Roots,
                              const RuleConfig &Config);

/// The normalizer's only fixpoint loop: repeats normalizeGraph until all of
/// \p Roots (two or more) share one class, or a round makes no progress,
/// or RuleConfig::MaxIterations rounds ran (then BudgetExhausted is set).
NormalizeStats normalizeToFixpoint(ValueGraph &G,
                                   const std::vector<NodeId> &Roots,
                                   const RuleConfig &Config);

} // namespace llvmmd

#endif // LLVMMD_NORMALIZE_NORMALIZER_H
