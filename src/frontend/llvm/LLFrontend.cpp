//===- LLFrontend.cpp - Module parser, post-process, public entry ---------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "frontend/llvm/LLFrontend.h"
#include "frontend/llvm/LLImporter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <cctype>
#include <sstream>

using namespace llvmmd;

//===----------------------------------------------------------------------===//
// Construction / driver
//===----------------------------------------------------------------------===//

LLImporter::LLImporter(Context &Ctx, std::vector<LLToken> Tokens,
                       std::string ModuleName)
    : Ctx(Ctx), Toks(std::move(Tokens)),
      M(new Module(Ctx, std::move(ModuleName))) {}

LLImportResult LLImporter::run() {
  LLImportResult Res;
  try {
    scanTopLevel();
  } catch (const LLFatalErr &E) {
    Res.Error = E.Msg;
    Res.ErrorLine = E.Line;
    Res.ErrorCol = E.Col;
    return Res;
  }
  // Attribute groups may follow the declarations that name them.
  for (const auto &[F, Id] : GroupUses) {
    auto It = GroupEffects.find(Id);
    if (It != GroupEffects.end())
      addMemoryEffect(F, It->second);
  }
  for (PendingFn &PF : Pending) {
    Cur = PF.BodyBegin;
    try {
      translateBody(PF);
    } catch (const LLRejectErr &E) {
      PF.F->dropBody();
      Rejected.push_back(
          {PF.F->getName(), E.Reason, E.Detail, E.Line ? E.Line : PF.DefLine});
    } catch (const LLFatalErr &E) {
      // Structural garbage inside one body is still only that function's
      // problem: per-function isolation is the contract.
      PF.F->dropBody();
      Rejected.push_back({PF.F->getName(), llreject::SyntaxError, E.Msg,
                          E.Line ? E.Line : PF.DefLine});
    }
  }
  Res.M = std::move(M);
  Res.Rejected = std::move(Rejected);
  return Res;
}

//===----------------------------------------------------------------------===//
// Token cursor
//===----------------------------------------------------------------------===//

void LLImporter::expectTok(LLTok K, const char *What) {
  if (tok().Kind != K)
    fatal(std::string("expected ") + What);
  advance();
}

void LLImporter::skipRestOfLine() {
  unsigned Line = tok().Line;
  while (tok().Kind != LLTok::Eof && tok().Line == Line)
    advance();
}

void LLImporter::skipLineTail(unsigned Line, size_t Limit) {
  while (Cur < Limit && tok().Kind != LLTok::Eof && tok().Line == Line)
    advance();
}

void LLImporter::skipTrailingOnLine() {
  if (Cur == 0)
    return;
  unsigned Line = Toks[Cur - 1].Line;
  while (tok().Kind != LLTok::Eof && tok().Line == Line)
    advance();
}

void LLImporter::fatal(std::string Msg) const {
  std::ostringstream OS;
  OS << "line " << tok().Line << ": " << Msg;
  if (tok().Kind != LLTok::Eof && !tok().Text.empty())
    OS << " (got '" << tok().Text << "')";
  else if (tok().Kind == LLTok::Eof)
    OS << " (got end of input)";
  throw LLFatalErr{OS.str(), tok().Line, tok().Col};
}

void LLImporter::reject(const char *Reason, std::string Detail) const {
  throw LLRejectErr{Reason, std::move(Detail), tok().Line};
}

//===----------------------------------------------------------------------===//
// Name sanitization
//===----------------------------------------------------------------------===//

std::string LLImporter::sanitizeName(std::string_view Name) {
  std::string Out(Name);
  for (char &C : Out)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '.' && C != '$')
      C = '_';
  return Out;
}

//===----------------------------------------------------------------------===//
// Pass 1: module structure
//===----------------------------------------------------------------------===//

namespace {

/// Module/global-level keywords that carry no meaning for the mini-IR and
/// are skipped wherever they appear before the `global`/`constant` keyword
/// or a function signature.
bool isLinkageOrVisibilityWord(std::string_view W) {
  static const char *Words[] = {
      "private",      "internal",       "external",   "extern_weak",
      "linkonce",     "linkonce_odr",   "weak",       "weak_odr",
      "common",       "appending",      "available_externally",
      "dso_local",    "dso_preemptable", "hidden",    "protected",
      "default",      "dllimport",      "dllexport",  "unnamed_addr",
      "local_unnamed_addr", "externally_initialized", "thread_local",
      "addrspace",    "align",          "section",    "comdat",
      "partition",    "code_model",     "no_sanitize_address",
      "sanitize_address_dyninit"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

} // namespace

void LLImporter::scanTopLevel() {
  while (tok().Kind != LLTok::Eof) {
    const LLToken &T = tok();
    switch (T.Kind) {
    case LLTok::Word:
      if (T.Text == "target" || T.Text == "source_filename" ||
          T.Text == "module" || T.Text == "uselistorder" ||
          T.Text == "uselistorder_bb" || T.Text == "declare_comdat") {
        skipRestOfLine();
        continue;
      }
      if (T.Text == "attributes") {
        parseAttributeGroup();
        continue;
      }
      if (T.Text == "declare") {
        parseFunctionHeader(/*IsDefine=*/false);
        continue;
      }
      if (T.Text == "define") {
        parseFunctionHeader(/*IsDefine=*/true);
        continue;
      }
      if (!T.Text.empty() && T.Text[0] == '$') {
        skipRestOfLine(); // $comdat = comdat any
        continue;
      }
      fatal("unexpected top-level construct");
    case LLTok::GlobalId:
      parseGlobalDef();
      continue;
    case LLTok::LocalId:
      // %struct.S = type { ... } — named types are aggregates we do not
      // model; uses inside functions reject per function via parseType.
      skipRestOfLine();
      continue;
    case LLTok::MetaId:
      skipRestOfLine(); // !0 = !{...} / !llvm.module.flags = !{...}
      continue;
    default:
      fatal("unexpected top-level token");
    }
  }
}

void LLImporter::parseGlobalDef() {
  unsigned Line = tok().Line;
  std::string_view OrigName = tok().Text;
  advance();
  expectTok(LLTok::Equals, "'='");

  bool IsConstant = false;
  bool IsDeclaration = false;
  while (true) {
    if (isWord("global")) {
      advance();
      break;
    }
    if (isWord("constant")) {
      IsConstant = true;
      advance();
      break;
    }
    if (tok().Kind == LLTok::Word && isLinkageOrVisibilityWord(tok().Text)) {
      if (tok().Text == "external" || tok().Text == "extern_weak")
        IsDeclaration = true;
      advance();
      // thread_local(localdynamic), addrspace(1)
      if (tok().Kind == LLTok::LParen) {
        while (tok().Kind != LLTok::RParen && tok().Kind != LLTok::Eof)
          advance();
        expectTok(LLTok::RParen, "')'");
      }
      continue;
    }
    fatal("expected 'global' or 'constant' for @" + std::string(OrigName));
  }

  // Type (one array level allowed) and initializer. Anything we cannot
  // model marks the global unsupported: functions touching it reject with
  // `unsupported-constant`, the rest of the module is unaffected.
  LLType Ty;
  try {
    Ty = parseTypeOrArray();
  } catch (const LLRejectErr &) {
    UnsupportedGlobals.insert(OrigName);
    skipRestOfLine();
    return;
  }

  Constant *Init = nullptr;
  if (!IsDeclaration && tok().Line == Line) {
    try {
      if (tok().Kind == LLTok::CStr) {
        // c"bytes": an i8 array; the flattened global keeps element 0.
        if (Ty.Ty != Ctx.getInt8Ty())
          reject(llreject::UnsupportedConstant, "c\"...\" on non-i8 global");
        std::string Bytes = unescapeLLString(tok().Text);
        advance();
        Init = Ctx.getInt(Ctx.getInt8Ty(),
                          Bytes.empty()
                              ? 0
                              : static_cast<unsigned char>(Bytes[0]));
      } else if (tok().Kind == LLTok::LBracket) {
        // [i32 1, i32 2, ...] — keep the first element (see header notes on
        // array flattening).
        advance();
        bool First = true;
        while (tok().Kind != LLTok::RBracket) {
          Type *ElemTy = parseType();
          Constant *C = parseConstantLiteral(ElemTy);
          if (First) {
            if (ElemTy != Ty.Ty)
              reject(llreject::UnsupportedConstant, "array element type");
            Init = C;
            First = false;
          }
          if (tok().Kind == LLTok::Comma) {
            advance();
            continue;
          }
          break;
        }
        expectTok(LLTok::RBracket, "']'");
        if (!Init)
          Init = zeroOf(Ty.Ty);
      } else if (tok().Kind == LLTok::Comma) {
        // No initializer, straight to ", align 4".
      } else if (isWord("zeroinitializer")) {
        advance();
        Init = zeroOf(Ty.Ty);
      } else if (tok().Kind == LLTok::GlobalId || tok().Kind == LLTok::Word ||
                 tok().Kind == LLTok::Int || tok().Kind == LLTok::Float ||
                 tok().Kind == LLTok::FloatHex) {
        Init = parseConstantLiteral(Ty.Ty);
      }
    } catch (const LLRejectErr &) {
      UnsupportedGlobals.insert(OrigName);
      skipRestOfLine();
      return;
    }
  }
  skipTrailingOnLine();

  if (GlobalByName.count(OrigName) || FnByName.count(OrigName))
    fatal("redefinition of @" + std::string(OrigName));
  GlobalByName[OrigName] = M->createGlobal(Ty.Ty, uniqueModuleName(OrigName),
                                           Init, IsConstant);
}

std::string LLImporter::uniqueModuleName(std::string_view OrigName) {
  return uniqueName(sanitizeName(OrigName), OrigName, RenamedModuleNames,
                    [&](const std::string &N) {
                      auto F = FnByName.find(N);
                      auto G = GlobalByName.find(N);
                      return (F != FnByName.end() &&
                              F->second->getName() == N) ||
                             (G != GlobalByName.end() &&
                              G->second->getName() == N);
                    });
}

void LLImporter::parseAttributeGroup() {
  advance(); // attributes
  if (tok().Kind != LLTok::AttrId)
    fatal("expected '#N'");
  std::string_view Id = tok().Text;
  advance();
  expectTok(LLTok::Equals, "'='");
  expectTok(LLTok::LBrace, "'{'");
  MemoryEffect Effect = MemoryEffect::ReadWrite;
  unsigned Depth = 1;
  while (Depth && tok().Kind != LLTok::Eof) {
    if (tok().Kind == LLTok::LBrace) {
      ++Depth;
    } else if (tok().Kind == LLTok::RBrace) {
      --Depth;
    } else if (Depth == 1) {
      Effect = std::max(Effect, eatMemoryAttr());
      continue;
    }
    advance();
  }
  GroupEffects[Id] = Effect;
}

MemoryEffect LLImporter::eatMemoryAttr() {
  if (isWord("readonly") || isWord("readnone")) {
    MemoryEffect E =
        isWord("readonly") ? MemoryEffect::ReadOnly : MemoryEffect::ReadNone;
    advance();
    return E;
  }
  if (!isWord("memory") || tok(1).Kind != LLTok::LParen) {
    advance();
    return MemoryEffect::ReadWrite;
  }
  // Only an unqualified memory(read) / memory(none) says something about
  // all memory; memory(argmem: read), memory(read, inaccessiblemem: write)
  // and memory(write) leave the call clobbering.
  MemoryEffect E = MemoryEffect::ReadWrite;
  advance();
  advance();
  if (tok(1).Kind == LLTok::RParen && isWord("read"))
    E = MemoryEffect::ReadOnly;
  else if (tok(1).Kind == LLTok::RParen && isWord("none"))
    E = MemoryEffect::ReadNone;
  while (tok().Kind != LLTok::RParen && tok().Kind != LLTok::Eof)
    advance();
  expectTok(LLTok::RParen, "')'");
  return E;
}

void LLImporter::addMemoryEffect(Function *F, MemoryEffect E) {
  // ReadWrite < ReadOnly < ReadNone: keep the strongest attribute named.
  F->setMemoryEffect(std::max(F->getMemoryEffect(), E));
}

std::string_view LLImporter::peekFunctionName() const {
  unsigned Line = tok().Line;
  for (size_t I = Cur; I < Toks.size() && Toks[I].Line == Line; ++I)
    if (Toks[I].Kind == LLTok::GlobalId)
      return Toks[I].Text;
  return "<unknown>";
}

void LLImporter::parseFunctionHeader(bool IsDefine) {
  unsigned Line = tok().Line;
  std::string_view OrigName = peekFunctionName();
  advance(); // define / declare

  // A reject anywhere in the signature poisons the function, not the
  // module: skip the declaration (and body, for defines) and remember the
  // reason so callers reject with `unsupported-callee`.
  auto skipAfterBadSignature = [&](const char *CalleeReason) {
    BadCallees[OrigName] = CalleeReason;
    if (!IsDefine) {
      skipTrailingOnLine();
      return;
    }
    // Find the body-open brace: the first '{' that ends its line. A '{'
    // with more tokens after it on the same line is an aggregate type in
    // the signature we are skipping — consume that brace group whole.
    while (tok().Kind != LLTok::Eof) {
      if (tok().Kind == LLTok::LBrace) {
        if (tok(1).Kind == LLTok::Eof || tok(1).Line != tok().Line)
          break;
        unsigned TypeDepth = 1;
        advance();
        while (TypeDepth && tok().Kind != LLTok::Eof) {
          if (tok().Kind == LLTok::LBrace)
            ++TypeDepth;
          else if (tok().Kind == LLTok::RBrace)
            --TypeDepth;
          advance();
        }
        continue;
      }
      advance();
    }
    expectTok(LLTok::LBrace, "'{'");
    unsigned Depth = 1;
    while (Depth && tok().Kind != LLTok::Eof) {
      if (tok().Kind == LLTok::LBrace)
        ++Depth;
      else if (tok().Kind == LLTok::RBrace)
        --Depth;
      advance();
    }
  };

  Type *RetTy = nullptr;
  std::vector<Type *> Params;
  std::vector<std::string_view> ParamNames;
  bool IsVararg = false;
  unsigned RejLine = Line;
  try {
    // Return attributes / linkage words before the return type, including
    // parenthesized forms (dereferenceable(8)) and "align 4".
    while (tok().Kind == LLTok::Word && !atTypeStart()) {
      bool WasAlign = tok().Text == "align";
      advance();
      if (tok().Kind == LLTok::LParen) {
        while (tok().Kind != LLTok::RParen && tok().Kind != LLTok::Eof)
          advance();
        expectTok(LLTok::RParen, "')'");
      } else if (WasAlign && tok().Kind == LLTok::Int) {
        advance();
      }
    }
    RetTy = parseType();
    if (tok().Kind != LLTok::GlobalId)
      fatal("expected function name");
    advance();
    expectTok(LLTok::LParen, "'('");
    while (tok().Kind != LLTok::RParen) {
      if (tok().Kind == LLTok::Ellipsis) {
        IsVararg = true;
        advance();
        break;
      }
      Type *P = parseType();
      skipParamAttrs();
      std::string_view PName;
      if (tok().Kind == LLTok::LocalId) {
        PName = tok().Text;
        advance();
      }
      Params.push_back(P);
      ParamNames.push_back(PName);
      if (tok().Kind == LLTok::Comma) {
        advance();
        continue;
      }
      break;
    }
    expectTok(LLTok::RParen, "')'");
  } catch (const LLRejectErr &E) {
    RejLine = E.Line;
    skipAfterBadSignature(llreject::UnsupportedCallee);
    if (IsDefine)
      Rejected.push_back({sanitizeName(OrigName), E.Reason, E.Detail, RejLine});
    return;
  }

  if (IsVararg) {
    skipAfterBadSignature(llreject::VarargsCall);
    if (IsDefine)
      Rejected.push_back({sanitizeName(OrigName), llreject::VarargsCall,
                          "varargs signature", Line});
    return;
  }

  if (FnByName.count(OrigName) || GlobalByName.count(OrigName))
    fatal("redefinition of @" + std::string(OrigName));

  Function *F = M->createFunction(Ctx.getFunctionTy(RetTy, Params),
                                  uniqueModuleName(OrigName));
  FnByName[OrigName] = F;

  // Known libc declarations get the memory effects the optimizer's libc
  // knowledge consists of (clang carries them in attribute groups we skip).
  static const char *ReadOnlyLibc[] = {"strlen", "strcmp", "strncmp",
                                       "memcmp", "strchr", "strrchr"};
  static const char *ReadNoneLibc[] = {"abs",     "labs",    "llabs",
                                       "isdigit", "isalpha", "isupper",
                                       "islower", "toupper", "tolower"};
  for (const char *L : ReadOnlyLibc)
    if (OrigName == L)
      F->setMemoryEffect(MemoryEffect::ReadOnly);
  for (const char *L : ReadNoneLibc)
    if (OrigName == L)
      F->setMemoryEffect(MemoryEffect::ReadNone);

  if (!IsDefine) {
    // Trailer tokens on the declaration's own line(s) only — the cursor may
    // already sit on the next construct. `declare ... readonly` from our
    // own printer round-trips too.
    unsigned EndLine = Toks[Cur - 1].Line;
    while (tok().Line == EndLine && tok().Kind != LLTok::Eof) {
      if (tok().Kind == LLTok::AttrId) {
        GroupUses.push_back({F, tok().Text});
        advance();
        continue;
      }
      addMemoryEffect(F, eatMemoryAttr());
    }
    return;
  }

  // Skip function attributes between ')' and '{' (#0, align 2, section
  // "...", personality, !dbg ...), then capture the body token range.
  while (tok().Kind != LLTok::LBrace && tok().Kind != LLTok::Eof)
    advance();
  expectTok(LLTok::LBrace, "'{'");
  size_t Begin = Cur;
  unsigned Depth = 1;
  while (tok().Kind != LLTok::Eof) {
    if (tok().Kind == LLTok::LBrace)
      ++Depth;
    else if (tok().Kind == LLTok::RBrace && --Depth == 0)
      break;
    advance();
  }
  if (tok().Kind == LLTok::Eof)
    fatal("unterminated function body for @" + std::string(OrigName));
  size_t End = Cur;
  advance(); // consume '}'

  PendingFn PF;
  PF.F = F;
  PF.OrigName = OrigName;
  PF.ArgNames = std::move(ParamNames);
  PF.BodyBegin = Begin;
  PF.BodyEnd = End;
  PF.DefLine = Line;
  Pending.push_back(std::move(PF));
}

//===----------------------------------------------------------------------===//
// Post-process pass
//===----------------------------------------------------------------------===//

void LLImporter::postProcessFunction(Body &B) {
  Function *F = B.PF->F;

  // Every referenced block must have been defined by a label.
  if (B.Order.size() != F->getNumBlocks()) {
    B.Defined.resize(F->getMaxBlockNumber());
    for (const auto &[Name, BB] : B.Blocks)
      if (!B.Defined[BB->getNumber()])
        throw LLRejectErr{llreject::SyntaxError,
                          "branch to undefined label '%" + std::string(Name) +
                              "'",
                          B.PF->DefLine};
    throw LLRejectErr{llreject::SyntaxError, "undefined label",
                      B.PF->DefLine};
  }

  resolveFixups(B);
  remapSwitchPhis(B);

  for (const auto &BB : F->blocks())
    if (!BB->getTerminator())
      throw LLRejectErr{llreject::SyntaxError,
                        "block '" + BB->getName() + "' has no terminator",
                        B.PF->DefLine};

  F->reorderBlocks(B.Order);

  // The translation checks tokens, not the CFG: a phi in the wrong block or
  // a use its definition does not dominate imports fine, and the passes
  // downstream assume neither happens.
  std::vector<std::string> Errors;
  if (!verifyFunction(*F, Errors))
    throw LLRejectErr{llreject::IllFormed, Errors.front(), B.PF->DefLine};
}

void LLImporter::resolveFixups(Body &B) {
  for (const auto &Fix : B.Fixups) {
    auto It = B.Locals.find(Fix.Name);
    if (It == B.Locals.end())
      throw LLRejectErr{llreject::SyntaxError,
                        "use of undefined value '%" + std::string(Fix.Name) +
                            "'",
                        Fix.Line};
    if (It->second->getType() != Fix.Ty)
      throw LLRejectErr{llreject::SyntaxError,
                        "type mismatch resolving '%" + std::string(Fix.Name) +
                            "'",
                        Fix.Line};
    Fix.I->setOperand(Fix.OpIdx, It->second);
  }
}

void LLImporter::remapSwitchPhis(Body &B) {
  for (const auto &SW : B.Switches) {
    // Group the lowered edges by target block, in case order.
    std::vector<std::pair<BasicBlock *, std::vector<BasicBlock *>>> ByTarget;
    for (const auto &[Target, Source] : SW.Edges) {
      auto It = std::find_if(ByTarget.begin(), ByTarget.end(),
                             [&](const auto &E) { return E.first == Target; });
      if (It == ByTarget.end())
        ByTarget.push_back({Target, {Source}});
      else
        It->second.push_back(Source);
    }
    for (const auto &[Target, Sources] : ByTarget) {
      for (PhiNode *P : Target->phis()) {
        int Idx = P->getBlockIndex(SW.Orig);
        if (Idx < 0)
          continue;
        Value *V = P->getIncomingValue(static_cast<unsigned>(Idx));
        P->setIncomingBlock(static_cast<unsigned>(Idx), Sources.front());
        for (size_t I = 1; I < Sources.size(); ++I)
          P->addIncoming(V, Sources[I]);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

LLImportResult llvmmd::importLLModule(Context &Ctx, std::string_view Text,
                                      std::string ModuleName) {
  // Adopt the printer's "; ModuleID = '<name>'" header when the caller did
  // not name the module.
  if (ModuleName == "module") {
    constexpr std::string_view Tag = "; ModuleID = '";
    size_t Pos = Text.find(Tag);
    if (Pos != std::string_view::npos) {
      size_t Start = Pos + Tag.size();
      size_t End = Text.find('\'', Start);
      if (End != std::string_view::npos)
        ModuleName = std::string(Text.substr(Start, End - Start));
    }
  }

  std::vector<LLToken> Toks;
  LLImportResult Res;
  std::string LexError;
  unsigned ErrLine = 0, ErrCol = 0;
  if (!lexLLText(Text, Toks, LexError, ErrLine, ErrCol)) {
    Res.Error = "line " + std::to_string(ErrLine) + ": " + LexError;
    Res.ErrorLine = ErrLine;
    Res.ErrorCol = ErrCol;
    return Res;
  }
  return LLImporter(Ctx, std::move(Toks), std::move(ModuleName)).run();
}

ParseResult llvmmd::parseModule(Context &Ctx, std::string_view Text,
                                std::string ModuleName) {
  LLImportResult IR = importLLModule(Ctx, Text, std::move(ModuleName));
  ParseResult R;
  if (!IR) {
    R.Error = std::move(IR.Error);
  } else if (!IR.Rejected.empty()) {
    const LLFunctionReject &First = *std::min_element(
        IR.Rejected.begin(), IR.Rejected.end(),
        [](const LLFunctionReject &A, const LLFunctionReject &B) {
          return A.Line < B.Line;
        });
    R.Error = "line " + std::to_string(First.Line) + ": " + First.Reason +
              ": " + First.Detail;
  } else {
    R.M = std::move(IR.M);
  }
  return R;
}
