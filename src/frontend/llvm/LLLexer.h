//===- LLLexer.h - Tokenizer for LLVM .ll text ------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tokenizer layer of the `.ll` importer (the l2s-style frontend split:
/// lexer -> module parser -> type/constant translator -> instruction
/// translator -> post-process). It understands the full lexical surface of
/// real `clang`/`opt` output — quoted identifiers, `c"..."` strings, hex
/// float literals, metadata (`!id`) and attribute-group (`#N`) references —
/// so the higher layers can skip what they do not model instead of choking
/// on the first `!dbg`.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FRONTEND_LLVM_LLLEXER_H
#define LLVMMD_FRONTEND_LLVM_LLLEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace llvmmd {

enum class LLTok : uint8_t {
  Eof,
  Word,     ///< bare keyword/identifier: define, i32, nsw, x, ...
  LocalId,  ///< %name / %"quoted" (text without the sigil, unquoted)
  GlobalId, ///< @name / @"quoted"
  MetaId,   ///< !name / !N / bare ! before { (text may be empty)
  AttrId,   ///< #N attribute group reference
  Int,      ///< decimal integer literal (possibly negative)
  Float,    ///< decimal float literal (1.5, -2.0e+01)
  FloatHex, ///< 0x[KLMHR]?hexdigits — LLVM hexadecimal FP literal
  Str,      ///< "..." string (text without quotes, escapes unprocessed)
  CStr,     ///< c"..." constant string (text without quotes)
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Less,
  Greater,
  Comma,
  Equals,
  Star,
  Colon,
  Ellipsis,
};

/// One token. Text is a view into the lexed source (sigils and quotes
/// stripped), so the source must outlive the tokens.
struct LLToken {
  LLTok Kind = LLTok::Eof;
  std::string_view Text;
  unsigned Line = 1; ///< 1-based
  unsigned Col = 1;  ///< 1-based
};

/// Tokenizes `.ll` text into \p Out (always terminated by an Eof token).
/// Returns false on a character-level error (unterminated string, byte that
/// starts no token), with \p Error / \p ErrLine / \p ErrCol filled in.
bool lexLLText(std::string_view Src, std::vector<LLToken> &Out,
               std::string &Error, unsigned &ErrLine, unsigned &ErrCol);

/// Interprets the escape sequences of a lexed `c"..."` / `"..."` payload
/// (`\\xx` hex pairs and `\\\\`) into raw bytes.
std::string unescapeLLString(std::string_view Text);

} // namespace llvmmd

#endif // LLVMMD_FRONTEND_LLVM_LLLEXER_H
