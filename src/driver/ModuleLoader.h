//===- ModuleLoader.h - Unified module ingest for all front doors -*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One module-loading entry point shared by every front door: the batch CLI,
/// the validation server, the fleet path behind it, and the example tools.
/// A ModuleSpec names where a module comes from (file, stdin, inline text,
/// or a generated benchmark profile); loadModules resolves each spec to a
/// native Module. All module text, real `opt` output and this project's
/// printed modules alike, goes through the one `.ll` reader
/// (importLLModule), which verifies every function it builds and refuses
/// the ones it cannot model or that are ill-formed, by name.
///
/// Spec grammar (shared by every CLI's `--input` / positional arguments):
///
///   FILE           load the file
///   -              read the module text from stdin
///   profile:NAME   generate the Table-1 benchmark profile NAME
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_MODULELOADER_H
#define LLVMMD_DRIVER_MODULELOADER_H

#include "driver/Report.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace llvmmd {

class Context;
class Module;

/// What loading does with a function the reader refuses. The three values
/// are wire-stable (SubmitInline{Auto,Mini,LLVM}); every one reads the
/// text with the same reader.
enum class ModuleFormat : uint8_t {
  /// Demote the function to a declaration and name it in Unsupported.
  Auto = 0,
  /// Strict: the load fails with `line N: <reason>: <detail>`.
  MiniIR = 1,
  /// Same as Auto.
  LLVMIR = 2,
};

/// One requested module: where it comes from and how to read it.
struct ModuleSpec {
  enum class Source : uint8_t { File, Stdin, Inline, Profile };
  Source From = Source::File;
  /// File path, inline module text, or profile name (by Source).
  std::string Value;
  /// Module name override; empty derives it (file path, profile name,
  /// "<stdin>", or the name embedded in the text).
  std::string Name;
  ModuleFormat Format = ModuleFormat::Auto; ///< refusal policy
  /// Profile specs only: overrides the profile's FunctionCount (0 = keep).
  unsigned ProfileFnCount = 0;
};

/// Parses the shared `--input` spec grammar (FILE | - | profile:NAME).
ModuleSpec parseModuleSpec(const std::string &Spec);

/// The CLI help paragraph describing the spec grammar and the shared
/// error-exit convention, so every tool's --help says the same thing.
const char *moduleSpecHelp();

/// One successfully loaded module.
struct LoadedModule {
  std::unique_ptr<Module> M;
  std::string Name;
  /// Functions the reader refused (present in M as declarations), with
  /// their named reason classes; empty for profiles and strict loads.
  std::vector<UnsupportedFunctionEntry> Unsupported;
};

/// Result of loading a batch of specs. Loading stops at the first error;
/// `Modules` holds everything loaded before it.
struct LoadResult {
  std::vector<LoadedModule> Modules;
  std::string Error; ///< empty on success; includes the module/file name
  unsigned ErrorLine = 0; ///< 1-based when known, else 0
  unsigned ErrorCol = 0;

  explicit operator bool() const { return Error.empty(); }
};

/// Loads every spec into \p Ctx (which must outlive the modules).
LoadResult loadModules(Context &Ctx, const std::vector<ModuleSpec> &Specs);

/// Single-spec convenience wrapper over loadModules.
LoadResult loadModule(Context &Ctx, const ModuleSpec &Spec);

/// Loads one module from \p Text, which need only outlive the call: what
/// an Inline spec does, without first copying the text into the spec.
/// \p Name as for ModuleSpec::Name.
LoadResult loadModuleText(Context &Ctx, std::string_view Text,
                          const std::string &Name, ModuleFormat Format);

/// Attaches a loaded module's unsupported-function accounting to its
/// validation report (sets Report.UnsupportedFunctions).
void attachUnsupported(ValidationReport &Report, const LoadedModule &LM);

} // namespace llvmmd

#endif // LLVMMD_DRIVER_MODULELOADER_H
