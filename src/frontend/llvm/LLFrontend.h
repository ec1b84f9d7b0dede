//===- LLFrontend.h - Textual LLVM .ll subset importer ----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader of module text: maps a practical subset of real LLVM IR
/// (i1/i8/i16/i32/i64, float/double, pointers, gep, phi, br +
/// switch-as-br, icmp/fcmp, binary ops, calls to known declarations,
/// globals with scalar/array initializers) onto the native IR. The
/// printer (ir/Printer.h) writes this subset, so printed modules read back
/// through the same path as `clang`/`opt` output.
///
/// Unsupported constructs are rejected **per function**: the offending
/// function is demoted to a declaration and reported with a named reason
/// class (see `llreject`), while the rest of the module imports and
/// validates normally. Every translated body is then run through
/// verifyFunction, and one that fails is rejected as `ill-formed`, so no
/// caller ever sees a body the passes cannot handle. Only malformed
/// top-level structure fails the whole module, with a line/column
/// diagnostic. parseModule (ir/Parser.h) is the strict form.
///
/// Noise that real `clang`/`opt` output carries but the native IR does not
/// model — `target` lines, `source_filename`, metadata, parameter
/// attributes, `align`, `nsw`/`nuw`, fast-math flags — is tolerated and
/// dropped. Of function attributes only the memory effect of declarations
/// is kept: `readonly`/`readnone` and LLVM 16's `memory(read)` /
/// `memory(none)`, inline or through an `attributes #N` group.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FRONTEND_LLVM_LLFRONTEND_H
#define LLVMMD_FRONTEND_LLVM_LLFRONTEND_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace llvmmd {

class Context;
class Module;

/// The named reject-reason classes a function can be refused with. Reports
/// surface these verbatim (`unsupported_functions` accounting), so they are
/// stable strings, not an enum that would print as a number.
namespace llreject {
inline constexpr const char *VectorType = "vector-type";
inline constexpr const char *AggregateType = "aggregate-type";
inline constexpr const char *UnsupportedType = "unsupported-type";
inline constexpr const char *UnsupportedInstruction = "unsupported-instruction";
inline constexpr const char *UnsupportedPredicate = "unsupported-predicate";
inline constexpr const char *MultiIndexGEP = "multi-index-gep";
inline constexpr const char *IndirectCall = "indirect-call";
inline constexpr const char *VarargsCall = "varargs-call";
inline constexpr const char *UnsupportedCallee = "unsupported-callee";
inline constexpr const char *UnsupportedConstant = "unsupported-constant";
inline constexpr const char *SyntaxError = "syntax-error";
/// Translated, but the verifier refuses the body (a phi that does not
/// match its block's predecessors, a use its definition does not
/// dominate, ...); the detail is the verifier's first message.
inline constexpr const char *IllFormed = "ill-formed";
} // namespace llreject

/// One function the importer refused, with the reason class and a
/// human-readable detail ("fptosi", "fcmp predicate 'uno'", ...).
struct LLFunctionReject {
  std::string Function;
  std::string Reason; ///< one of the llreject:: classes
  std::string Detail;
  unsigned Line = 0; ///< 1-based source line of the offending construct
};

struct LLImportResult {
  /// The imported module; rejected functions are present as declarations
  /// so calls to them stay well-formed. Null only on a module-level error.
  std::unique_ptr<Module> M;
  /// Per-function rejections: those of signatures first, then those of
  /// bodies, each in textual order.
  std::vector<LLFunctionReject> Rejected;
  /// Module-level diagnostic when !M.
  std::string Error;
  unsigned ErrorLine = 0;
  unsigned ErrorCol = 0;

  explicit operator bool() const { return M != nullptr; }
};

/// Imports `.ll` text. The returned module lives in \p Ctx, which must
/// outlive it. Never throws; per-function problems land in `Rejected`,
/// top-level problems in `Error`.
LLImportResult importLLModule(Context &Ctx, std::string_view Text,
                              std::string ModuleName = "module");

} // namespace llvmmd

#endif // LLVMMD_FRONTEND_LLVM_LLFRONTEND_H
