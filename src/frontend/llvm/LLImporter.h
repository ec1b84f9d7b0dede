//===- LLImporter.h - Internal .ll importer state ---------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The importer class shared by the frontend's translation units, split by
/// layer the way shady splits its LLVM frontend (`l2s_*`):
///
///   LLLexer.cpp         — tokenizer
///   LLFrontend.cpp      — module-structure parser + post-process pass +
///                         verification + the public importLLModule /
///                         parseModule
///   LLTypes.cpp         — type & constant translator
///   LLInstructions.cpp  — instruction translator (incl. switch-as-br
///                         lowering)
///
/// Error discipline: `LLRejectErr` is thrown while translating one function
/// and caught per function (the function is demoted to a declaration and
/// recorded with its named reason class); `LLFatalErr` is thrown for
/// malformed top-level structure and fails the whole import with a
/// line/column diagnostic. Neither escapes importLLModule().
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FRONTEND_LLVM_LLIMPORTER_H
#define LLVMMD_FRONTEND_LLVM_LLIMPORTER_H

#include "frontend/llvm/LLFrontend.h"
#include "frontend/llvm/LLLexer.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace llvmmd {

/// Per-function rejection (caught at function granularity).
struct LLRejectErr {
  const char *Reason; ///< llreject:: class
  std::string Detail;
  unsigned Line;
};

/// Module-level malformation (fails the whole import).
struct LLFatalErr {
  std::string Msg;
  unsigned Line;
  unsigned Col;
};

class LLImporter {
public:
  /// \p Tokens are views into the module text, which must outlive the
  /// importer: every name table below is keyed by views into it.
  LLImporter(Context &Ctx, std::vector<LLToken> Tokens,
             std::string ModuleName);

  /// Runs both passes and verifies each translated body. Does not throw.
  LLImportResult run();

private:
  //===--------------------------------------------------------------------===//
  // Shared state
  //===--------------------------------------------------------------------===//

  Context &Ctx;
  std::vector<LLToken> Toks;
  size_t Cur = 0;
  std::unique_ptr<Module> M;
  std::vector<LLFunctionReject> Rejected;

  /// A `define` whose signature imported: the declaration exists, the body
  /// token range is translated in pass 2.
  struct PendingFn {
    Function *F = nullptr;
    std::string_view OrigName;             ///< .ll name (pre-sanitization)
    std::vector<std::string_view> ArgNames; ///< .ll argument names
    size_t BodyBegin = 0;                  ///< first token inside the braces
    size_t BodyEnd = 0;                    ///< index of the closing '}'
    unsigned DefLine = 0;
  };
  std::vector<PendingFn> Pending;

  /// .ll name -> native object (names are sanitized on creation, so module
  /// lookups by original name go through these maps).
  std::unordered_map<std::string_view, Function *> FnByName;
  std::unordered_map<std::string_view, GlobalVariable *> GlobalByName;
  /// Declared/defined functions we could not model: callee name -> reason
  /// class to reject the *caller* with.
  std::unordered_map<std::string_view, const char *> BadCallees;
  std::unordered_set<std::string_view> UnsupportedGlobals;
  /// `attributes #N = { ... }` -> the memory effect the group names, and
  /// the declarations that reference a group (resolved after pass 1, so
  /// groups may come after their uses).
  std::unordered_map<std::string_view, MemoryEffect> GroupEffects;
  std::vector<std::pair<Function *, std::string_view>> GroupUses;
  /// Global/function names that differ from their .ll name (see
  /// uniqueName).
  std::unordered_set<std::string> RenamedModuleNames;

  //===--------------------------------------------------------------------===//
  // Token cursor helpers (LLFrontend.cpp)
  //===--------------------------------------------------------------------===//

  const LLToken &tok(size_t Ahead = 0) const {
    size_t I = Cur + Ahead;
    return Toks[I < Toks.size() ? I : Toks.size() - 1]; // Eof sentinel
  }
  void advance() {
    if (Cur + 1 < Toks.size())
      ++Cur;
  }
  bool isWord(std::string_view W) const {
    return tok().Kind == LLTok::Word && tok().Text == W;
  }
  bool eatWord(std::string_view W) {
    if (!isWord(W))
      return false;
    advance();
    return true;
  }
  void expectTok(LLTok K, const char *What); ///< fatal on mismatch
  void skipRestOfLine();
  /// Skips ", align 4, !tbaa !8 #2"-style trailer tokens on \p Line.
  void skipLineTail(unsigned Line, size_t Limit);
  /// Skips trailer tokens sharing the last *consumed* token's line. Unlike
  /// skipRestOfLine this is a no-op when the construct ended its line and
  /// the cursor already sits on the next line's first token.
  void skipTrailingOnLine();
  [[noreturn]] void fatal(std::string Msg) const;
  [[noreturn]] void reject(const char *Reason, std::string Detail) const;

  //===--------------------------------------------------------------------===//
  // Name sanitization (LLFrontend.cpp)
  //===--------------------------------------------------------------------===//

  /// Restricts a .ll name to the printable identifier charset
  /// ([A-Za-z0-9_.$]), so import -> print -> reimport round-trips.
  static std::string sanitizeName(std::string_view Name);
  /// The first of \p Base, Base.1, Base.2, ... that no other object of
  /// the scope is named. .ll names are unique per scope, so a name equal
  /// to its own .ll name \p OrigName is free unless an earlier rename took
  /// it: only renames are recorded, in \p Renamed. \p TakenAsIs(N) tells
  /// whether an object of the scope kept the .ll name N verbatim.
  template <typename TakenAsIsFn>
  static std::string uniqueName(std::string Base, std::string_view OrigName,
                                std::unordered_set<std::string> &Renamed,
                                TakenAsIsFn TakenAsIs);

  //===--------------------------------------------------------------------===//
  // Pass 1: module structure (LLFrontend.cpp)
  //===--------------------------------------------------------------------===//

  void scanTopLevel();
  void parseGlobalDef();
  void parseAttributeGroup();
  /// Consumes one function attribute and returns the memory effect it
  /// names: `readonly` / `memory(read)` read, `readnone` / `memory(none)`
  /// touch nothing; anything else returns ReadWrite.
  MemoryEffect eatMemoryAttr();
  /// Strengthens \p F's memory effect to at least \p E.
  static void addMemoryEffect(Function *F, MemoryEffect E);
  void parseFunctionHeader(bool IsDefine);
  /// First @name on the current line (for diagnostics before the name is
  /// reached in grammar order).
  std::string_view peekFunctionName() const;
  /// uniqueName over the module's global and function names.
  std::string uniqueModuleName(std::string_view OrigName);

  //===--------------------------------------------------------------------===//
  // Type & constant translator (LLTypes.cpp)
  //===--------------------------------------------------------------------===//

  /// A translated first-class type, or one level of array ([N x T]).
  struct LLType {
    Type *Ty = nullptr; ///< scalar type, or the array element type
    uint64_t Count = 0;
    bool IsArray = false;
  };

  Type *parseType();         ///< scalar only; arrays reject too
  LLType parseTypeOrArray(); ///< allows [N x scalar]
  bool atTypeStart() const;
  /// Skips parameter/return-value attributes (noundef, align N,
  /// dereferenceable(8), ...) at the cursor.
  void skipParamAttrs();
  Constant *parseConstantLiteral(Type *Ty);
  Constant *zeroOf(Type *Ty);
  int64_t parseIntText(std::string_view Text) const;

  //===--------------------------------------------------------------------===//
  // Pass 2: instruction translator (LLInstructions.cpp)
  //===--------------------------------------------------------------------===//

  struct Body {
    PendingFn *PF = nullptr;
    std::unordered_map<std::string_view, Value *> Locals; ///< .ll name -> value
    std::unordered_set<std::string> RenamedValues; ///< see uniqueName
    std::unordered_map<std::string_view, BasicBlock *> Blocks; ///< .ll label
    std::unordered_set<std::string> RenamedBlocks;
    std::vector<BasicBlock *> Order; ///< textual definition order
    std::vector<bool> Defined;       ///< by block number: label seen
    std::deque<std::string> AutoArgNames; ///< %0, %1, ... of unnamed args
    struct Fixup {
      Instruction *I;
      unsigned OpIdx;
      std::string_view Name;
      Type *Ty;
      unsigned Line;
    };
    std::vector<Fixup> Fixups;
    /// One lowered `switch`: every (target, actual-source) edge the icmp/br
    /// chain produces, for the phi-incoming remap in post-processing.
    struct SwitchLower {
      BasicBlock *Orig;
      std::vector<std::pair<BasicBlock *, BasicBlock *>> Edges;
    };
    std::vector<SwitchLower> Switches;
  };

  using DeferList = std::vector<std::pair<unsigned, std::string_view>>;

  void translateBody(PendingFn &PF);
  /// uniqueName over the body's block labels and value names; a generated
  /// name passes an empty \p OrigName.
  std::string uniqueBlockName(Body &B, std::string Base,
                              std::string_view OrigName);
  std::string uniqueValueName(Body &B, std::string Base,
                              std::string_view OrigName, const Value *Self);
  BasicBlock *getOrCreateBlock(Body &B, std::string_view Name);
  void defineLocal(Body &B, std::string_view Name, Value *V,
                   bool Rename = true);
  Value *parseValueRef(Body &B, Type *Ty, DeferList *Defer, unsigned OpIdx);
  Value *parseTypedValue(Body &B, DeferList *Defer, unsigned OpIdx);
  void translateInstruction(Body &B, IRBuilder &Builder);
  Instruction *translateOpcode(Body &B, IRBuilder &Builder,
                               std::string_view Op, DeferList &Defer,
                               Value **AliasResult);
  Instruction *translateCall(Body &B, IRBuilder &Builder, DeferList &Defer);
  Instruction *translateGEP(Body &B, IRBuilder &Builder, DeferList &Defer);
  Instruction *translateSwitch(Body &B, IRBuilder &Builder, DeferList &Defer);
  void recordFixups(Body &B, Instruction *I, const DeferList &Defer,
                    unsigned Line);

  //===--------------------------------------------------------------------===//
  // Post-process pass (LLFrontend.cpp)
  //===--------------------------------------------------------------------===//

  void postProcessFunction(Body &B);
  void resolveFixups(Body &B);
  void remapSwitchPhis(Body &B);
};

template <typename TakenAsIsFn>
std::string LLImporter::uniqueName(std::string Base, std::string_view OrigName,
                                   std::unordered_set<std::string> &Renamed,
                                   TakenAsIsFn TakenAsIs) {
  if (Base == OrigName && !Renamed.count(Base))
    return Base;
  std::string Cand = Base;
  for (unsigned I = 1; Renamed.count(Cand) || TakenAsIs(Cand); ++I)
    Cand = Base + "." + std::to_string(I);
  Renamed.insert(Cand);
  return Cand;
}

} // namespace llvmmd

#endif // LLVMMD_FRONTEND_LLVM_LLIMPORTER_H
