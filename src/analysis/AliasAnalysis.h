//===- AliasAnalysis.h - Simple may-alias analysis --------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-aliasing rules the paper relies on: pointers from distinct stack
/// allocations never alias; pointers forged with getelementptr at different
/// constant offsets from the same base never alias; distinct globals never
/// alias; non-escaping allocas never alias unrelated pointers. Everything
/// else is MayAlias. Both the optimizer (GVN, LICM, DSE) and the
/// validator's load/store rules consume this analysis.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_ALIASANALYSIS_H
#define LLVMMD_ANALYSIS_ALIASANALYSIS_H

#include "support/FlatMap.h"

#include <cstdint>
#include <optional>

namespace llvmmd {

class Function;
class Value;

enum class AliasResult : uint8_t { NoAlias, MayAlias, MustAlias };

class AliasAnalysis {
public:
  /// Analyzes \p F (computes alloca escape information once).
  explicit AliasAnalysis(const Function &F);

  /// Relation between the memory locations addressed by two pointers, given
  /// the access sizes in bytes.
  AliasResult alias(const Value *PtrA, unsigned SizeA, const Value *PtrB,
                    unsigned SizeB) const;

  /// Convenience overload assuming the same (unknown) access footprint:
  /// only NoAlias/MustAlias answers are then reliable for full overlap.
  AliasResult alias(const Value *PtrA, const Value *PtrB) const {
    return alias(PtrA, 1, PtrB, 1);
  }

  /// True if \p V is an alloca whose address never escapes the function
  /// (not stored, not passed to calls, not returned).
  bool isNonEscapingAlloca(const Value *V) const {
    return NonEscaping.contains(flatKey(V));
  }

  /// Decomposes \p Ptr into (base, constant byte offset) through GEP chains
  /// with constant indices; nullopt offset when an index is not constant.
  struct Decomposed {
    const Value *Base;
    std::optional<int64_t> Offset;
  };
  static Decomposed decompose(const Value *Ptr);

  /// True if \p V is an "identified object": an alloca or a global, whose
  /// address is distinct from every other identified object.
  static bool isIdentifiedObject(const Value *V);

private:
  FlatMap<bool> NonEscaping;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_ALIASANALYSIS_H
