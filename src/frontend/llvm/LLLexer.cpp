//===- LLLexer.cpp - Tokenizer for LLVM .ll text --------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "frontend/llvm/LLLexer.h"

#include <cctype>

using namespace llvmmd;

namespace {

/// Character classes by byte: identifier characters [-a-zA-Z$._0-9] and
/// word starts [a-zA-Z$._].
enum : uint8_t { IdentChar = 1, WordStart = 2 };

struct CharClassTable {
  uint8_t Class[256] = {};
  constexpr CharClassTable() {
    for (unsigned C = 0; C < 256; ++C) {
      bool Alpha = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
      bool Punct = C == '$' || C == '.' || C == '_';
      if (Alpha || Punct || (C >= '0' && C <= '9') || C == '-')
        Class[C] |= IdentChar;
      if (Alpha || Punct)
        Class[C] |= WordStart;
    }
  }
};

constexpr CharClassTable CharClasses;

bool isLLIdentChar(char C) {
  return CharClasses.Class[static_cast<unsigned char>(C)] & IdentChar;
}

bool isLLWordStart(char C) {
  return CharClasses.Class[static_cast<unsigned char>(C)] & WordStart;
}

class LexState {
public:
  LexState(std::string_view Src, std::vector<LLToken> &Out)
      : Src(Src), Out(Out) {}

  bool run(std::string &Error, unsigned &ErrLine, unsigned &ErrCol) {
    while (true) {
      skipWhitespaceAndComments();
      if (Pos >= Src.size()) {
        emit(LLTok::Eof, "", col());
        return true;
      }
      if (!lexOne()) {
        Error = Err;
        ErrLine = Line;
        ErrCol = col();
        return false;
      }
    }
  }

private:
  std::string_view Src;
  std::vector<LLToken> &Out;
  size_t Pos = 0;
  size_t LineStart = 0;
  unsigned Line = 1;
  std::string Err;

  unsigned col() const { return static_cast<unsigned>(Pos - LineStart) + 1; }

  void emit(LLTok Kind, std::string_view Text, unsigned AtCol) {
    Out.push_back({Kind, Text, Line, AtCol});
  }

  void newline() {
    ++Line;
    LineStart = Pos;
  }

  void skipWhitespaceAndComments() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Pos;
        newline();
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  /// Lexes the identifier characters at Pos (no sigil handling).
  std::string_view lexIdentTail() {
    size_t Start = Pos;
    while (Pos < Src.size() && isLLIdentChar(Src[Pos]))
      ++Pos;
    return Src.substr(Start, Pos - Start);
  }

  /// Lexes a quoted payload after the opening '"'. Returns false on an
  /// unterminated string.
  bool lexQuoted(std::string_view &Text) {
    size_t Start = Pos;
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '"') {
        Text = Src.substr(Start, Pos - Start);
        ++Pos;
        return true;
      }
      if (C == '\n') // strings never span lines in .ll
        break;
      ++Pos;
    }
    Err = "unterminated string literal";
    return false;
  }

  bool lexNumber(unsigned StartCol) {
    size_t Start = Pos;
    if (Src[Pos] == '-')
      ++Pos;
    // Hexadecimal FP literal: 0x[KLMHR]?hexdigits.
    if (Pos + 1 < Src.size() && Src[Pos] == '0' && Src[Pos + 1] == 'x') {
      Pos += 2;
      if (Pos < Src.size() &&
          (Src[Pos] == 'K' || Src[Pos] == 'L' || Src[Pos] == 'M' ||
           Src[Pos] == 'H' || Src[Pos] == 'R'))
        ++Pos;
      size_t DigitsStart = Pos;
      while (Pos < Src.size() &&
             std::isxdigit(static_cast<unsigned char>(Src[Pos])))
        ++Pos;
      if (Pos == DigitsStart) {
        Err = "malformed hexadecimal literal";
        return false;
      }
      emit(LLTok::FloatHex, Src.substr(Start, Pos - Start),
           StartCol);
      return true;
    }
    bool IsFloat = false;
    while (Pos < Src.size() &&
           std::isdigit(static_cast<unsigned char>(Src[Pos])))
      ++Pos;
    if (Pos < Src.size() && Src[Pos] == '.') {
      IsFloat = true;
      ++Pos;
      while (Pos < Src.size() &&
             std::isdigit(static_cast<unsigned char>(Src[Pos])))
        ++Pos;
    }
    if (Pos < Src.size() && (Src[Pos] == 'e' || Src[Pos] == 'E')) {
      size_t Save = Pos;
      ++Pos;
      if (Pos < Src.size() && (Src[Pos] == '+' || Src[Pos] == '-'))
        ++Pos;
      if (Pos < Src.size() &&
          std::isdigit(static_cast<unsigned char>(Src[Pos]))) {
        IsFloat = true;
        while (Pos < Src.size() &&
               std::isdigit(static_cast<unsigned char>(Src[Pos])))
          ++Pos;
      } else {
        Pos = Save; // 'e' belonged to something else
      }
    }
    emit(IsFloat ? LLTok::Float : LLTok::Int,
         Src.substr(Start, Pos - Start), StartCol);
    return true;
  }

  bool lexOne() {
    unsigned StartCol = col();
    char C = Src[Pos];
    switch (C) {
    case '(':
      ++Pos;
      emit(LLTok::LParen, "(", StartCol);
      return true;
    case ')':
      ++Pos;
      emit(LLTok::RParen, ")", StartCol);
      return true;
    case '{':
      ++Pos;
      emit(LLTok::LBrace, "{", StartCol);
      return true;
    case '}':
      ++Pos;
      emit(LLTok::RBrace, "}", StartCol);
      return true;
    case '[':
      ++Pos;
      emit(LLTok::LBracket, "[", StartCol);
      return true;
    case ']':
      ++Pos;
      emit(LLTok::RBracket, "]", StartCol);
      return true;
    case '<':
      ++Pos;
      emit(LLTok::Less, "<", StartCol);
      return true;
    case '>':
      ++Pos;
      emit(LLTok::Greater, ">", StartCol);
      return true;
    case ',':
      ++Pos;
      emit(LLTok::Comma, ",", StartCol);
      return true;
    case '=':
      ++Pos;
      emit(LLTok::Equals, "=", StartCol);
      return true;
    case '*':
      ++Pos;
      emit(LLTok::Star, "*", StartCol);
      return true;
    case ':':
      ++Pos;
      emit(LLTok::Colon, ":", StartCol);
      return true;
    case '%':
    case '@': {
      LLTok Kind = C == '%' ? LLTok::LocalId : LLTok::GlobalId;
      ++Pos;
      if (Pos < Src.size() && Src[Pos] == '"') {
        ++Pos;
        std::string_view Text;
        if (!lexQuoted(Text))
          return false;
        emit(Kind, Text, StartCol);
        return true;
      }
      emit(Kind, lexIdentTail(), StartCol);
      return true;
    }
    case '!':
      ++Pos;
      emit(LLTok::MetaId, lexIdentTail(), StartCol);
      return true;
    case '#':
      ++Pos;
      emit(LLTok::AttrId, lexIdentTail(), StartCol);
      return true;
    case '"': {
      ++Pos;
      std::string_view Text;
      if (!lexQuoted(Text))
        return false;
      emit(LLTok::Str, Text, StartCol);
      return true;
    }
    default:
      break;
    }
    if (C == '.') {
      if (Pos + 2 < Src.size() && Src[Pos + 1] == '.' && Src[Pos + 2] == '.') {
        Pos += 3;
        emit(LLTok::Ellipsis, "...", StartCol);
        return true;
      }
      emit(LLTok::Word, lexIdentTail(), StartCol);
      return true;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) || C == '-')
      return lexNumber(StartCol);
    if (C == 'c' && Pos + 1 < Src.size() && Src[Pos + 1] == '"') {
      Pos += 2;
      std::string_view Text;
      if (!lexQuoted(Text))
        return false;
      emit(LLTok::CStr, Text, StartCol);
      return true;
    }
    if (isLLWordStart(C)) {
      emit(LLTok::Word, lexIdentTail(), StartCol);
      return true;
    }
    Err = std::string("unexpected character '") + C + "'";
    return false;
  }
};

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

} // namespace

bool llvmmd::lexLLText(std::string_view Src, std::vector<LLToken> &Out,
                       std::string &Error, unsigned &ErrLine,
                       unsigned &ErrCol) {
  Out.clear();
  // Printed modules average a little over four bytes per token.
  Out.reserve(Src.size() / 4 + 16);
  return LexState(Src, Out).run(Error, ErrLine, ErrCol);
}

std::string llvmmd::unescapeLLString(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (C == '\\' && I + 1 < Text.size()) {
      if (Text[I + 1] == '\\') {
        Out.push_back('\\');
        ++I;
        continue;
      }
      if (I + 2 < Text.size()) {
        int Hi = hexDigit(Text[I + 1]), Lo = hexDigit(Text[I + 2]);
        if (Hi >= 0 && Lo >= 0) {
          Out.push_back(static_cast<char>(Hi * 16 + Lo));
          I += 2;
          continue;
        }
      }
    }
    Out.push_back(C);
  }
  return Out;
}
