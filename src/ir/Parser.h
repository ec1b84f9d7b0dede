//===- Parser.h - Strict module reader --------------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strict form of the one module reader (importLLModule, in
/// frontend/llvm/LLFrontend.h): the same `.ll` text, printed modules and
/// real `opt` output alike, but a function the reader refuses (outside the
/// modeled subset, or ill-formed) fails the whole parse instead of being
/// demoted to a declaration.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_PARSER_H
#define LLVMMD_IR_PARSER_H

#include <memory>
#include <string>
#include <string_view>

namespace llvmmd {

class Context;
class Module;

/// Result of a parse: a module on success, a diagnostic on failure.
struct ParseResult {
  std::unique_ptr<Module> M;
  /// "line N: <message>" for a malformed module, "line N: <reason>:
  /// <detail>" for the refusal that comes first in the text.
  std::string Error;

  explicit operator bool() const { return M != nullptr; }
};

/// Parses a whole module. The returned module lives in \p Ctx, which must
/// outlive it; a "; ModuleID = '<name>'" header names the module when
/// \p ModuleName is left at its default.
ParseResult parseModule(Context &Ctx, std::string_view Text,
                        std::string ModuleName = "module");

} // namespace llvmmd

#endif // LLVMMD_IR_PARSER_H
