//===-- lexer/Lexer.cpp ---------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cassert>
#include <climits>
#include <cstdlib>

using namespace dmm;

const char *dmm::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile: return "end of file";
  case TokenKind::Unknown: return "unknown token";
  case TokenKind::Identifier: return "identifier";
  case TokenKind::IntLiteral: return "integer literal";
  case TokenKind::DoubleLiteral: return "floating literal";
  case TokenKind::CharLiteral: return "character literal";
  case TokenKind::StringLiteral: return "string literal";
  case TokenKind::KwClass: return "'class'";
  case TokenKind::KwStruct: return "'struct'";
  case TokenKind::KwUnion: return "'union'";
  case TokenKind::KwPublic: return "'public'";
  case TokenKind::KwPrivate: return "'private'";
  case TokenKind::KwProtected: return "'protected'";
  case TokenKind::KwVirtual: return "'virtual'";
  case TokenKind::KwVolatile: return "'volatile'";
  case TokenKind::KwConst: return "'const'";
  case TokenKind::KwVoid: return "'void'";
  case TokenKind::KwBool: return "'bool'";
  case TokenKind::KwChar: return "'char'";
  case TokenKind::KwInt: return "'int'";
  case TokenKind::KwDouble: return "'double'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::KwWhile: return "'while'";
  case TokenKind::KwFor: return "'for'";
  case TokenKind::KwBreak: return "'break'";
  case TokenKind::KwContinue: return "'continue'";
  case TokenKind::KwReturn: return "'return'";
  case TokenKind::KwNew: return "'new'";
  case TokenKind::KwDelete: return "'delete'";
  case TokenKind::KwThis: return "'this'";
  case TokenKind::KwSizeof: return "'sizeof'";
  case TokenKind::KwStaticCast: return "'static_cast'";
  case TokenKind::KwReinterpretCast: return "'reinterpret_cast'";
  case TokenKind::KwTrue: return "'true'";
  case TokenKind::KwFalse: return "'false'";
  case TokenKind::KwNullptr: return "'nullptr'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::LBracket: return "'['";
  case TokenKind::RBracket: return "']'";
  case TokenKind::Semi: return "';'";
  case TokenKind::Comma: return "','";
  case TokenKind::Colon: return "':'";
  case TokenKind::ColonColon: return "'::'";
  case TokenKind::Period: return "'.'";
  case TokenKind::Arrow: return "'->'";
  case TokenKind::PeriodStar: return "'.*'";
  case TokenKind::ArrowStar: return "'->*'";
  case TokenKind::Amp: return "'&'";
  case TokenKind::AmpAmp: return "'&&'";
  case TokenKind::Pipe: return "'|'";
  case TokenKind::PipePipe: return "'||'";
  case TokenKind::Caret: return "'^'";
  case TokenKind::Tilde: return "'~'";
  case TokenKind::Exclaim: return "'!'";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Slash: return "'/'";
  case TokenKind::Percent: return "'%'";
  case TokenKind::Equal: return "'='";
  case TokenKind::EqualEqual: return "'=='";
  case TokenKind::ExclaimEqual: return "'!='";
  case TokenKind::Less: return "'<'";
  case TokenKind::Greater: return "'>'";
  case TokenKind::LessEqual: return "'<='";
  case TokenKind::GreaterEqual: return "'>='";
  case TokenKind::LessLess: return "'<<'";
  case TokenKind::GreaterGreater: return "'>>'";
  case TokenKind::PlusEqual: return "'+='";
  case TokenKind::MinusEqual: return "'-='";
  case TokenKind::StarEqual: return "'*='";
  case TokenKind::SlashEqual: return "'/='";
  case TokenKind::PercentEqual: return "'%='";
  case TokenKind::PlusPlus: return "'++'";
  case TokenKind::MinusMinus: return "'--'";
  case TokenKind::Question: return "'?'";
  }
  return "unknown token";
}

/// Keyword lookup: a switch on length and first character narrows every
/// identifier to at most one candidate (two where a second character
/// decides), and one compare settles it.
static TokenKind keywordKind(std::string_view S) {
  using K = TokenKind;
  auto Pick = [S](std::string_view Word, K Kind) {
    return S == Word ? Kind : K::Identifier;
  };
  switch (S.size()) {
  case 2:
    return Pick("if", K::KwIf);
  case 3:
    switch (S[0]) {
    case 'f': return Pick("for", K::KwFor);
    case 'i': return Pick("int", K::KwInt);
    case 'n': return Pick("new", K::KwNew);
    }
    break;
  case 4:
    switch (S[0]) {
    case 'b': return Pick("bool", K::KwBool);
    case 'c': return Pick("char", K::KwChar);
    case 'e': return Pick("else", K::KwElse);
    case 't':
      return S[1] == 'h' ? Pick("this", K::KwThis) : Pick("true", K::KwTrue);
    case 'v': return Pick("void", K::KwVoid);
    }
    break;
  case 5:
    switch (S[0]) {
    case 'b': return Pick("break", K::KwBreak);
    case 'c':
      return S[1] == 'l' ? Pick("class", K::KwClass)
                         : Pick("const", K::KwConst);
    case 'f': return Pick("false", K::KwFalse);
    case 'u': return Pick("union", K::KwUnion);
    case 'w': return Pick("while", K::KwWhile);
    }
    break;
  case 6:
    switch (S[0]) {
    case 'd':
      return S[1] == 'o' ? Pick("double", K::KwDouble)
                         : Pick("delete", K::KwDelete);
    case 'p': return Pick("public", K::KwPublic);
    case 'r': return Pick("return", K::KwReturn);
    case 's':
      return S[1] == 't' ? Pick("struct", K::KwStruct)
                         : Pick("sizeof", K::KwSizeof);
    }
    break;
  case 7:
    switch (S[0]) {
    case 'n': return Pick("nullptr", K::KwNullptr);
    case 'p': return Pick("private", K::KwPrivate);
    case 'v': return Pick("virtual", K::KwVirtual);
    }
    break;
  case 8:
    switch (S[0]) {
    case 'c': return Pick("continue", K::KwContinue);
    case 'v': return Pick("volatile", K::KwVolatile);
    }
    break;
  case 9:
    return Pick("protected", K::KwProtected);
  case 11:
    return Pick("static_cast", K::KwStaticCast);
  case 16:
    return Pick("reinterpret_cast", K::KwReinterpretCast);
  }
  return K::Identifier;
}

// ASCII classification: the tools never set a locale, so these agree
// with <cctype> in the "C" locale without its per-call table lookup.
static bool isDigit(char C) { return C >= '0' && C <= '9'; }
static bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
static bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The escape table: the character `\C` stands for, or -1 if `\C` is not
/// a known escape. Shared by the lexer (which diagnoses unknown escapes)
/// and the on-demand literal decoders (which, like the lexer, take an
/// unknown `\C` to mean C).
static int escapeValue(char C) {
  switch (C) {
  case 'n': return '\n';
  case 't': return '\t';
  case 'r': return '\r';
  case '0': return '\0';
  case '\\': return '\\';
  case '\'': return '\'';
  case '"': return '"';
  default: return -1;
  }
}

/// Decodes the escape whose character is \p C; unknown escapes stand for
/// \p C itself.
static char decodeEscape(char C) {
  int V = escapeValue(C);
  return V < 0 ? C : static_cast<char>(V);
}

Lexer::Lexer(const SourceManager &SM, uint32_t FileID,
             DiagnosticsEngine &Diags)
    : SM(SM), Diags(Diags), Text(SM.bufferText(FileID)), FileID(FileID) {}

char Lexer::peek(unsigned LookAhead) const {
  size_t Index = Pos + LookAhead;
  return Index < Text.size() ? Text[Index] : '\0';
}

char Lexer::advance() {
  assert(Pos < Text.size() && "advancing past end of buffer");
  return Text[Pos++];
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  ++Pos;
  return true;
}

SourceLocation Lexer::curLoc() const { return SourceLocation(FileID, Pos); }

void Lexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (Pos < Text.size() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      uint32_t Start = Pos;
      Pos += 2;
      while (Pos < Text.size() && !(peek() == '*' && peek(1) == '/'))
        ++Pos;
      if (Pos >= Text.size()) {
        Diags.error(SourceLocation(FileID, Start), "unterminated block comment");
        return;
      }
      Pos += 2;
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, uint32_t Begin) {
  Token T;
  T.Loc = SourceLocation(FileID, Begin);
  T.Length = Pos - Begin;
  T.Kind = Kind;
  return T;
}

Token Lexer::lexIdentifierOrKeyword() {
  uint32_t Begin = Pos;
  while (isIdentChar(peek()))
    ++Pos;
  return makeToken(keywordKind(Text.substr(Begin, Pos - Begin)), Begin);
}

Token Lexer::lexNumber() {
  uint32_t Begin = Pos;
  bool IsDouble = false;
  while (isDigit(peek()))
    ++Pos;
  if (peek() == '.' && isDigit(peek(1))) {
    IsDouble = true;
    ++Pos; // consume '.'
    while (isDigit(peek()))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    unsigned Ahead = 1;
    if (peek(1) == '+' || peek(1) == '-')
      Ahead = 2;
    if (isDigit(peek(Ahead))) {
      IsDouble = true;
      Pos += Ahead;
      while (isDigit(peek()))
        ++Pos;
    }
  }
  return makeToken(IsDouble ? TokenKind::DoubleLiteral : TokenKind::IntLiteral,
                   Begin);
}

void Lexer::lexEscape() {
  if (Pos >= Text.size()) {
    Diags.error(curLoc(), "unterminated escape sequence");
    return;
  }
  char C = advance();
  if (escapeValue(C) < 0)
    Diags.error(SourceLocation(FileID, Pos - 1),
                std::string("unknown escape sequence '\\") + C + "'");
}

Token Lexer::lexCharLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  if (peek() == '\\') {
    ++Pos;
    lexEscape();
  } else if (Pos < Text.size() && peek() != '\'') {
    ++Pos;
  } else {
    Diags.error(SourceLocation(FileID, Begin), "empty character literal");
  }
  if (!match('\'')) {
    Diags.error(SourceLocation(FileID, Begin),
                "unterminated character literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  return makeToken(TokenKind::CharLiteral, Begin);
}

Token Lexer::lexStringLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  while (Pos < Text.size() && peek() != '"' && peek() != '\n') {
    if (advance() == '\\')
      lexEscape();
  }
  if (!match('"')) {
    Diags.error(SourceLocation(FileID, Begin), "unterminated string literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  return makeToken(TokenKind::StringLiteral, Begin);
}

Token Lexer::lex() {
  skipTrivia();
  if (Pos >= Text.size())
    return makeToken(TokenKind::EndOfFile, Pos);

  char C = peek();
  if (isIdentStart(C))
    return lexIdentifierOrKeyword();
  if (isDigit(C))
    return lexNumber();
  if (C == '\'')
    return lexCharLiteral();
  if (C == '"')
    return lexStringLiteral();

  uint32_t Begin = Pos;
  ++Pos;
  switch (C) {
  case '{': return makeToken(TokenKind::LBrace, Begin);
  case '}': return makeToken(TokenKind::RBrace, Begin);
  case '(': return makeToken(TokenKind::LParen, Begin);
  case ')': return makeToken(TokenKind::RParen, Begin);
  case '[': return makeToken(TokenKind::LBracket, Begin);
  case ']': return makeToken(TokenKind::RBracket, Begin);
  case ';': return makeToken(TokenKind::Semi, Begin);
  case ',': return makeToken(TokenKind::Comma, Begin);
  case '?': return makeToken(TokenKind::Question, Begin);
  case '~': return makeToken(TokenKind::Tilde, Begin);
  case ':':
    return makeToken(match(':') ? TokenKind::ColonColon : TokenKind::Colon,
                     Begin);
  case '.':
    return makeToken(match('*') ? TokenKind::PeriodStar : TokenKind::Period,
                     Begin);
  case '&':
    return makeToken(match('&') ? TokenKind::AmpAmp : TokenKind::Amp, Begin);
  case '|':
    return makeToken(match('|') ? TokenKind::PipePipe : TokenKind::Pipe,
                     Begin);
  case '^':
    return makeToken(TokenKind::Caret, Begin);
  case '!':
    return makeToken(match('=') ? TokenKind::ExclaimEqual : TokenKind::Exclaim,
                     Begin);
  case '+':
    if (match('+'))
      return makeToken(TokenKind::PlusPlus, Begin);
    return makeToken(match('=') ? TokenKind::PlusEqual : TokenKind::Plus,
                     Begin);
  case '-':
    if (match('-'))
      return makeToken(TokenKind::MinusMinus, Begin);
    if (match('>'))
      return makeToken(match('*') ? TokenKind::ArrowStar : TokenKind::Arrow,
                       Begin);
    return makeToken(match('=') ? TokenKind::MinusEqual : TokenKind::Minus,
                     Begin);
  case '*':
    return makeToken(match('=') ? TokenKind::StarEqual : TokenKind::Star,
                     Begin);
  case '/':
    return makeToken(match('=') ? TokenKind::SlashEqual : TokenKind::Slash,
                     Begin);
  case '%':
    return makeToken(match('=') ? TokenKind::PercentEqual : TokenKind::Percent,
                     Begin);
  case '=':
    return makeToken(match('=') ? TokenKind::EqualEqual : TokenKind::Equal,
                     Begin);
  case '<':
    if (match('<'))
      return makeToken(TokenKind::LessLess, Begin);
    return makeToken(match('=') ? TokenKind::LessEqual : TokenKind::Less,
                     Begin);
  case '>':
    if (match('>'))
      return makeToken(TokenKind::GreaterGreater, Begin);
    return makeToken(match('=') ? TokenKind::GreaterEqual : TokenKind::Greater,
                     Begin);
  default:
    Diags.error(SourceLocation(FileID, Begin),
                std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Unknown, Begin);
  }
}

std::vector<Token> Lexer::lexAll() {
  // The paper suite's files run 2.4 to 4.9 source bytes per token, so
  // one token per 2 bytes makes a reallocation rare. The unused tail of
  // the reservation is never written, so its pages are never committed.
  std::vector<Token> Tokens;
  Tokens.reserve(Text.size() / 2 + 1);
  do
    Tokens.push_back(lex());
  while (Tokens.back().isNot(TokenKind::EndOfFile));
  return Tokens;
}

//===----------------------------------------------------------------------===//
// On-demand literal decoding
//===----------------------------------------------------------------------===//

long long Lexer::intValue(std::string_view Spelling) {
  long long Value = 0;
  for (char C : Spelling) {
    int Digit = C - '0';
    if (Value > (LLONG_MAX - Digit) / 10)
      return LLONG_MAX;
    Value = Value * 10 + Digit;
  }
  return Value;
}

double Lexer::doubleValue(std::string_view Spelling) {
  std::string Copy(Spelling); // strtod needs a terminator.
  return std::strtod(Copy.c_str(), nullptr);
}

char Lexer::charValue(std::string_view Spelling) {
  std::string_view Body = Spelling.substr(1, Spelling.size() - 2);
  if (Body.empty())
    return '\0';
  return Body[0] == '\\' ? decodeEscape(Body[1]) : Body[0];
}

std::string Lexer::stringValue(std::string_view Spelling) {
  std::string_view Body = Spelling.substr(1, Spelling.size() - 2);
  std::string Value;
  Value.reserve(Body.size());
  for (size_t I = 0; I < Body.size(); ++I)
    Value.push_back(Body[I] == '\\' ? decodeEscape(Body[++I]) : Body[I]);
  return Value;
}
