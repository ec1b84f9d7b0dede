//===- Rules.h - Rewrite rule sets and configuration ------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validator's rewrite rules come in individually toggleable sets so
/// the benchmark harness can reproduce the paper's rule ablations
/// (Figures 6-8). The first seven sets are the rules the paper describes;
/// the last three are the extensions it names as known false-alarm fixes
/// (libc knowledge, floating-point constant folding, folding of global
/// constants).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_NORMALIZE_RULES_H
#define LLVMMD_NORMALIZE_RULES_H

#include <cstdint>
#include <iterator>

namespace llvmmd {

class Module;

enum RuleSet : unsigned {
  RS_None = 0,
  /// Boolean simplification — the paper's rules (1)-(4) plus i1 algebra.
  RS_Boolean = 1u << 0,
  /// φ (γ-node) simplification — rules (5)-(6).
  RS_PhiSimplify = 1u << 1,
  /// η/μ simplification — rules (7)-(9) plus η-elimination on loop-free
  /// values.
  RS_EtaMu = 1u << 2,
  /// Constant folding over integers (add 3 2 ↓ 5) and constant identities
  /// (x+0, x*1, x*0, ...).
  RS_ConstFold = 1u << 3,
  /// LLVM-oriented canonicalizations: a+a ↓ shl a 1, mul-by-2^k ↓ shl,
  /// add x (-k) ↓ sub x k, comparison reorientation (gt 10 a ↓ lt a 10).
  RS_Canonicalize = 1u << 4,
  /// Load/store simplification with aliasing — rules (10)-(11), dead store
  /// and dead allocation removal.
  RS_LoadStore = 1u << 5,
  /// Commuting rules: push η nodes toward their μ nodes; distribute γ out
  /// of loops (validating loop unswitching).
  RS_Commuting = 1u << 6,
  /// Extension: libc knowledge (strlen/memset/atoi models).
  RS_Libc = 1u << 7,
  /// Extension: floating-point constant folding.
  RS_FloatFold = 1u << 8,
  /// Extension: folding loads of constant global variables.
  RS_GlobalFold = 1u << 9,

  /// What the paper's evaluated validator uses.
  RS_Paper = RS_Boolean | RS_PhiSimplify | RS_EtaMu | RS_ConstFold |
             RS_Canonicalize | RS_LoadStore | RS_Commuting,
  /// Everything, including the extensions.
  RS_All = RS_Paper | RS_Libc | RS_FloatFold | RS_GlobalFold,
};

/// Stable lowercase name of one rule family ("boolean", "phi-simplify",
/// "eta-mu", "const-fold", "canonicalize", "load-store", "commuting",
/// "libc", "float-fold", "global-fold"); "?" for non-single-family masks.
const char *getRuleSetName(RuleSet RS);

/// The one table of individual rewrite rules: X(Id, printed name, family).
/// The enum indexes NormalizeStats::RuleFires, so counting a fire is an
/// array increment, and every report, bench and cap names a rule the same
/// way.
#define LLVMMD_REWRITE_RULES(X)                                            \
  X(ConstFoldIcmp, "constfold.icmp", RS_ConstFold)                         \
  X(ConstFoldBinary, "constfold.binary", RS_ConstFold)                     \
  X(ConstFoldIdem, "constfold.idem", RS_ConstFold)                         \
  X(ConstFoldSelfCancel, "constfold.self-cancel", RS_ConstFold)            \
  X(ConstFoldAdd0, "constfold.add0", RS_ConstFold)                         \
  X(ConstFoldSub0, "constfold.sub0", RS_ConstFold)                         \
  X(ConstFoldMul1, "constfold.mul1", RS_ConstFold)                         \
  X(ConstFoldMul0, "constfold.mul0", RS_ConstFold)                         \
  X(ConstFoldAnd0, "constfold.and0", RS_ConstFold)                         \
  X(ConstFoldAnd1s, "constfold.and1s", RS_ConstFold)                       \
  X(ConstFoldOr0, "constfold.or0", RS_ConstFold)                           \
  X(ConstFoldXor0, "constfold.xor0", RS_ConstFold)                         \
  X(ConstFoldShift0, "constfold.shift0", RS_ConstFold)                     \
  X(ConstFoldDiv1, "constfold.div1", RS_ConstFold)                         \
  X(ConstFoldCast, "constfold.cast", RS_ConstFold)                         \
  X(ConstFoldGep0, "constfold.gep0", RS_ConstFold)                         \
  X(FloatFoldBinary, "floatfold.binary", RS_FloatFold)                     \
  X(FloatFoldFcmp, "floatfold.fcmp", RS_FloatFold)                         \
  X(BoolCmpSame, "boolean.cmp-same", RS_Boolean)                           \
  X(BoolEqTrue, "boolean.eq-true", RS_Boolean)                             \
  X(BoolNeFalse, "boolean.ne-false", RS_Boolean)                           \
  X(BoolAnd, "boolean.and", RS_Boolean)                                    \
  X(BoolAndFalse, "boolean.and-false", RS_Boolean)                         \
  X(BoolAndComplement, "boolean.and-complement", RS_Boolean)               \
  X(BoolOr, "boolean.or", RS_Boolean)                                      \
  X(BoolOrTrue, "boolean.or-true", RS_Boolean)                             \
  X(BoolOrComplement, "boolean.or-complement", RS_Boolean)                 \
  X(BoolXorSame, "boolean.xor-same", RS_Boolean)                           \
  X(BoolXorFalse, "boolean.xor-false", RS_Boolean)                         \
  X(BoolNotNot, "boolean.not-not", RS_Boolean)                             \
  X(BoolNotConst, "boolean.not-const", RS_Boolean)                         \
  X(BoolGammaToCond, "boolean.gamma-to-cond", RS_Boolean)                  \
  X(CanonAddSelf, "canon.add-self", RS_Canonicalize)                       \
  X(CanonAddNeg, "canon.add-neg", RS_Canonicalize)                         \
  X(CanonSubSelf, "canon.sub-self", RS_Canonicalize)                       \
  X(CanonMulPow2, "canon.mul-pow2", RS_Canonicalize)                       \
  X(CanonCmpSwap, "canon.cmp-swap", RS_Canonicalize)                       \
  X(CanonCmpOrient, "canon.cmp-orient", RS_Canonicalize)                   \
  X(PhiRule5, "phi.rule5", RS_PhiSimplify)                                 \
  X(PhiRule6, "phi.rule6", RS_PhiSimplify)                                 \
  X(PhiDropFalse, "phi.drop-false", RS_PhiSimplify)                        \
  X(PhiFlatten, "phi.flatten", RS_PhiSimplify)                             \
  X(EtaRule7, "eta.rule7", RS_EtaMu)                                       \
  X(EtaRule7FirstIter, "eta.rule7-first-iter", RS_EtaMu)                   \
  X(EtaRule8, "eta.rule8", RS_EtaMu)                                       \
  X(EtaRule9, "eta.rule9", RS_EtaMu)                                       \
  X(EtaLoopFree, "eta.loop-free", RS_EtaMu)                                \
  X(CommuteEtaOp, "commute.eta-op", RS_Commuting)                          \
  X(CommuteEtaGamma, "commute.eta-gamma", RS_Commuting)                    \
  X(CommuteEtaLoad, "commute.eta-load", RS_Commuting)                      \
  X(CommuteEtaStore, "commute.eta-store", RS_Commuting)                    \
  X(CommuteUnswitch, "commute.unswitch", RS_Commuting)                     \
  X(LoadStoreRule11, "loadstore.rule11", RS_LoadStore)                     \
  X(LoadStoreRule10, "loadstore.rule10", RS_LoadStore)                     \
  X(LoadStoreSkipAlloc, "loadstore.skip-alloc", RS_LoadStore)              \
  X(LoadStoreLoadOverLoop, "loadstore.load-over-loop", RS_LoadStore)       \
  X(LoadStoreStoreOverStore, "loadstore.store-over-store", RS_LoadStore)   \
  X(LoadStoreStoreCommute, "loadstore.store-commute", RS_LoadStore)        \
  X(LoadStoreDeadStore, "loadstore.dead-store", RS_LoadStore)              \
  X(LoadStoreDeadAlloc, "loadstore.dead-alloc", RS_LoadStore)              \
  X(GlobalFoldLoad, "globalfold.load", RS_GlobalFold)                      \
  X(LibcLoadOverMemset, "libc.load-over-memset", RS_Libc)                  \
  X(LibcMemsetRead, "libc.memset-read", RS_Libc)                           \
  X(LibcCallOverStore, "libc.call-over-store", RS_Libc)                    \
  X(LibcCallOverAlloc, "libc.call-over-alloc", RS_Libc)                    \
  X(LibcCallOverLoop, "libc.call-over-loop", RS_Libc)

enum class RewriteRule : uint8_t {
#define LLVMMD_RULE_ID(Id, Name, Family) Id,
  LLVMMD_REWRITE_RULES(LLVMMD_RULE_ID)
#undef LLVMMD_RULE_ID
};

struct RewriteRuleInfo {
  const char *Name;
  RuleSet Family;
};

/// Name and family of every RewriteRule, indexed by its value.
inline constexpr RewriteRuleInfo RewriteRules[] = {
#define LLVMMD_RULE_INFO(Id, Name, Family) {Name, Family},
    LLVMMD_REWRITE_RULES(LLVMMD_RULE_INFO)
#undef LLVMMD_RULE_INFO
};

inline constexpr unsigned NumRewriteRules = std::size(RewriteRules);

/// Configuration of one validation run.
struct RuleConfig {
  unsigned Mask = RS_Paper;
  /// Module providing global-variable initializers for RS_GlobalFold.
  const Module *M = nullptr;
  /// Budget of normalize/share rounds (one rule sweep plus one sharing
  /// pass each) before normalizeToFixpoint gives up.
  unsigned MaxIterations = 32;

  bool has(RuleSet RS) const { return (Mask & RS) != 0; }
};

} // namespace llvmmd

#endif // LLVMMD_NORMALIZE_RULES_H
