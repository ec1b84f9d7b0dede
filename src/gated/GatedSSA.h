//===- GatedSSA.h - Gating analysis for Monadic Gated SSA -------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the gating information of Monadic Gated SSA form (paper §2-3,
/// after Tu & Padua and Havlak):
///
///  * for every φ in a non-header block, a *gate* per incoming edge — the
///    path predicate from the block's immediate dominator to that edge,
///    expressed as a tree of branch conditions (mutually exclusive across
///    the φ's edges by construction);
///  * for every loop-header φ, a μ split: which incoming edges are initial
///    (from outside the loop) and which are iteration edges (from latches);
///  * for every loop exit edge, the η condition: the polarity-adjusted
///    branch condition under which control *stays* in the loop.
///
/// The value-graph builder consumes these to place γ/μ/η nodes; the
/// "monadic" half (threading the memory state) happens in the builder
/// itself, which treats memory as one more gated variable.
///
/// Functions with irreducible control flow are rejected, as in the paper
/// (§5.1); functions with multiple return blocks are likewise rejected by
/// this front-end (the paper compares a single pair of state pointers).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_GATED_GATEDSSA_H
#define LLVMMD_GATED_GATEDSSA_H

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "support/Arena.h"
#include "support/FlatMap.h"

#include <optional>
#include <string>
#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;
class Value;

/// A predicate over branch conditions, as a small expression tree.
struct GateExpr {
  enum class Kind : uint8_t { True, False, Cond, Not, And, Or } K;
  /// For Cond: the i1 condition value of the branch.
  Value *Cond = nullptr;
  const GateExpr *A = nullptr;
  const GateExpr *B = nullptr;
};

/// Owns GateExprs and provides smart constructors with local
/// simplification (true/false absorption) so trees stay small.
class GateFactory {
public:
  const GateExpr *getTrue() { return &TrueExpr; }
  const GateExpr *getFalse() { return &FalseExpr; }
  const GateExpr *makeCond(Value *C);
  const GateExpr *makeNot(const GateExpr *A);
  const GateExpr *makeAnd(const GateExpr *A, const GateExpr *B);
  const GateExpr *makeOr(const GateExpr *A, const GateExpr *B);

private:
  const GateExpr *intern(GateExpr E) { return Pool.create<GateExpr>(E); }
  GateExpr TrueExpr{GateExpr::Kind::True, nullptr, nullptr, nullptr};
  GateExpr FalseExpr{GateExpr::Kind::False, nullptr, nullptr, nullptr};
  Arena Pool{1024};
};

/// Gating facts for one function.
class GatingAnalysis {
public:
  /// Builds the analysis; check isSupported() before using the queries.
  explicit GatingAnalysis(const Function &F);

  bool isSupported() const { return Supported; }
  const std::string &getUnsupportedReason() const { return Reason; }

  const DominatorTree &getDomTree() const { return *DT; }
  const LoopInfo &getLoopInfo() const { return *LI; }

  /// Gate for the φ incoming edge Pred -> Block: the path predicate from
  /// idom(Block) through Pred, excluding back edges. Mutually exclusive
  /// with the gates of Block's other incoming edges.
  const GateExpr *getEdgeGate(const BasicBlock *Pred,
                              const BasicBlock *Block);

  /// Gate for a latch edge Latch -> Header relative to the header itself;
  /// used to combine multiple latches into a single μ iteration value.
  const GateExpr *getLatchGate(const BasicBlock *Latch,
                               const BasicBlock *Header) {
    return computeEdgePredicate(Latch, Header, Header);
  }

  /// The condition under which control stays inside \p L rather than
  /// leaving through the exit edge Exiting -> Exit.
  const GateExpr *getStayCondition(const Loop &L, const BasicBlock *Exiting,
                                   const BasicBlock *Exit) const;

  /// Deterministic representative exit edge of \p L (first in RPO order):
  /// used to place η nodes for values referenced outside the loop other
  /// than through exit-block φs.
  std::pair<const BasicBlock *, const BasicBlock *>
  getPrimaryExitEdge(const Loop &L) const;

  GateFactory &getFactory() { return Factory; }

private:
  const GateExpr *computeEdgePredicate(const BasicBlock *From,
                                       const BasicBlock *To,
                                       const BasicBlock *Root);

  const Function &F;
  bool Supported = true;
  std::string Reason;
  std::optional<DominatorTree> DT;
  std::optional<LoopInfo> LI;
  GateFactory Factory;
  /// Cache of block predicates relative to a root, keyed by the (root,
  /// block) numbers.
  FlatMap<const GateExpr *> PredCache;
};

} // namespace llvmmd

#endif // LLVMMD_GATED_GATEDSSA_H
