//===- LLTypes.cpp - Type and constant translator -------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Maps the `.ll` type and constant surface onto the mini-IR: i1/i8/i16/
// i32/i64, float/double (both lower to the 64-bit Float type), `ptr`
// (including pre-opaque-pointer `T*` spellings), and one level of
// `[N x T]` arrays where the sites that accept them say so. Everything
// else throws the appropriate named reject for the enclosing function.
//
//===----------------------------------------------------------------------===//

#include "frontend/llvm/LLImporter.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

using namespace llvmmd;

namespace {

/// Scalar .ll type keywords we refuse, mapped to the right reject class.
bool isRejectedScalarTypeWord(std::string_view W) {
  static const char *Words[] = {"half",  "bfloat", "fp128",    "x86_fp80",
                                "ppc_fp128", "x86_amx", "x86_mmx", "token",
                                "metadata", "label", "opaque"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

/// Parameter/return attributes (and their parenthesized forms) to skip.
bool isParamAttrWord(std::string_view W) {
  static const char *Words[] = {
      "noundef",    "nonnull",     "nocapture", "noalias",  "nofree",
      "readonly",   "readnone",    "writeonly", "signext",  "zeroext",
      "inreg",      "returned",    "nest",      "immarg",   "align",
      "dereferenceable", "dereferenceable_or_null", "sret", "byval",
      "byref",      "preallocated", "inalloca", "swiftself", "swifterror",
      "captures",   "range",       "noext",     "allocalign", "allocptr",
      "writable",   "dead_on_unwind", "dead_on_return", "initializes"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

} // namespace

bool LLImporter::atTypeStart() const {
  switch (tok().Kind) {
  case LLTok::LBracket:
  case LLTok::Less:
  case LLTok::LBrace:
    return true;
  case LLTok::LocalId:
    return true; // %struct.S — a (rejected) named type
  case LLTok::Word: {
    std::string_view W = tok().Text;
    if (W == "void" || W == "float" || W == "double" || W == "ptr")
      return true;
    if (W.size() >= 2 && W[0] == 'i') {
      for (size_t I = 1; I < W.size(); ++I)
        if (!std::isdigit(static_cast<unsigned char>(W[I])))
          return false;
      return true;
    }
    return isRejectedScalarTypeWord(W);
  }
  default:
    return false;
  }
}

Type *LLImporter::parseType() {
  Type *Ty = nullptr;
  switch (tok().Kind) {
  case LLTok::Less:
    reject(llreject::VectorType, "vector type");
  case LLTok::LBrace:
    reject(llreject::AggregateType, "literal struct type");
  case LLTok::LocalId:
    reject(llreject::AggregateType,
           "named type '%" + std::string(tok().Text) + "'");
  case LLTok::LBracket:
    reject(llreject::AggregateType, "array type in scalar position");
  case LLTok::Word: {
    std::string_view W = tok().Text;
    if (W == "void")
      Ty = Ctx.getVoidTy();
    else if (W == "float" || W == "double")
      Ty = Ctx.getFloatTy();
    else if (W == "ptr")
      Ty = Ctx.getPtrTy();
    else if (W.size() >= 2 && W[0] == 'i') {
      unsigned Bits = 0;
      std::from_chars(W.data() + 1, W.data() + W.size(), Bits);
      if (Bits == 1 || Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64)
        Ty = Ctx.getIntTy(Bits);
      else
        reject(llreject::UnsupportedType,
               "integer type '" + std::string(W) + "'");
    } else if (isRejectedScalarTypeWord(W)) {
      reject(llreject::UnsupportedType, "type '" + std::string(W) + "'");
    }
    break;
  }
  default:
    break;
  }
  if (!Ty)
    fatal("expected type");
  advance();
  // Pre-opaque-pointer spellings: i32*, i8**, [4 x i32]* all mean ptr.
  if (tok().Kind == LLTok::Star) {
    while (tok().Kind == LLTok::Star)
      advance();
    return Ctx.getPtrTy();
  }
  return Ty;
}

LLImporter::LLType LLImporter::parseTypeOrArray() {
  LLType Out;
  if (tok().Kind == LLTok::LBracket) {
    advance();
    if (tok().Kind != LLTok::Int)
      fatal("expected array length");
    Out.Count = static_cast<uint64_t>(parseIntText(tok().Text));
    advance();
    if (!eatWord("x"))
      fatal("expected 'x' in array type");
    if (tok().Kind == LLTok::LBracket)
      reject(llreject::AggregateType, "nested array type");
    Out.Ty = parseType();
    if (Out.Ty->isVoid())
      fatal("array of void");
    expectTok(LLTok::RBracket, "']'");
    Out.IsArray = true;
    if (tok().Kind == LLTok::Star) { // [4 x i32]* is just ptr
      while (tok().Kind == LLTok::Star)
        advance();
      Out.Ty = Ctx.getPtrTy();
      Out.IsArray = false;
      Out.Count = 0;
    }
    return Out;
  }
  Out.Ty = parseType();
  return Out;
}

void LLImporter::skipParamAttrs() {
  while (tok().Kind == LLTok::Word && isParamAttrWord(tok().Text)) {
    bool WasAlign = tok().Text == "align";
    advance();
    if (tok().Kind == LLTok::LParen) {
      unsigned Depth = 1;
      advance();
      while (Depth && tok().Kind != LLTok::Eof) {
        if (tok().Kind == LLTok::LParen)
          ++Depth;
        else if (tok().Kind == LLTok::RParen)
          --Depth;
        advance();
      }
    } else if (WasAlign && tok().Kind == LLTok::Int) {
      advance();
    }
  }
}

int64_t LLImporter::parseIntText(std::string_view Text) const {
  int64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec == std::errc::result_out_of_range)
    // Out-of-range literals saturate; the IR canonicalizes by sign
    // extension anyway, so that is acceptable for an importer.
    return Text[0] == '-' ? INT64_MIN : INT64_MAX;
  if (Ec != std::errc() || Ptr != End)
    fatal("malformed integer literal '" + std::string(Text) + "'");
  return V;
}

Constant *LLImporter::zeroOf(Type *Ty) {
  if (Ty->isInteger())
    return Ctx.getInt(Ty, 0);
  if (Ty->isFloat())
    return Ctx.getFloat(0.0);
  if (Ty->isPointer())
    return Ctx.getNullPtr();
  fatal("no zero value for type");
}

Constant *LLImporter::parseConstantLiteral(Type *Ty) {
  switch (tok().Kind) {
  case LLTok::Int: {
    int64_t V = parseIntText(tok().Text);
    advance();
    if (Ty->isInteger())
      return Ctx.getInt(Ty, V);
    if (Ty->isFloat()) // lenient: "double 1" means 1.0
      return Ctx.getFloat(static_cast<double>(V));
    reject(llreject::UnsupportedConstant, "integer literal for non-integer");
  }
  case LLTok::Float: {
    if (!Ty->isFloat())
      reject(llreject::UnsupportedConstant, "float literal for non-float");
    double V = std::strtod(std::string(tok().Text).c_str(), nullptr);
    advance();
    return Ctx.getFloat(V);
  }
  case LLTok::FloatHex: {
    if (!Ty->isFloat())
      reject(llreject::UnsupportedConstant, "float literal for non-float");
    std::string T(tok().Text); // 0x[KLMHR]?hexdigits
    if (T.size() > 2 && !std::isxdigit(static_cast<unsigned char>(T[2])))
      reject(llreject::UnsupportedType,
             "extended-precision float literal '" + T + "'");
    uint64_t Bits = std::strtoull(T.c_str() + 2, nullptr, 16);
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    advance();
    return Ctx.getFloat(V);
  }
  case LLTok::Word: {
    std::string_view W = tok().Text;
    if (W == "true" || W == "false") {
      if (!Ty->isInteger() || Ty->getBitWidth() != 1)
        reject(llreject::UnsupportedConstant, "i1 literal for non-i1");
      bool B = W == "true";
      advance();
      return Ctx.getBool(B);
    }
    if (W == "null") {
      if (!Ty->isPointer())
        reject(llreject::UnsupportedConstant, "null for non-pointer");
      advance();
      return Ctx.getNullPtr();
    }
    if (W == "undef" || W == "poison") {
      advance();
      return Ctx.getUndef(Ty);
    }
    if (W == "zeroinitializer") {
      advance();
      return zeroOf(Ty);
    }
    // getelementptr (...), bitcast (...), blockaddress(...), dso_local_equivalent...
    reject(llreject::UnsupportedConstant,
           "constant expression '" + std::string(W) + "'");
  }
  case LLTok::GlobalId:
    // Handled by parseValueRef inside functions; in pure-literal positions
    // (global initializers) cross-global references are beyond the subset.
    reject(llreject::UnsupportedConstant,
           "global reference '@" + std::string(tok().Text) +
               "' in initializer");
  default:
    fatal("expected constant");
  }
}
