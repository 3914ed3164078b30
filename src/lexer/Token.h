//===-- lexer/Token.h - MiniC++ tokens --------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token value type produced by the Lexer.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_LEXER_TOKEN_H
#define DMM_LEXER_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>

namespace dmm {

/// All token kinds of the MiniC++ subset.
enum class TokenKind : uint8_t {
  EndOfFile,
  Unknown,

  Identifier,
  IntLiteral,
  DoubleLiteral,
  CharLiteral,
  StringLiteral,

  // Keywords.
  KwClass,
  KwStruct,
  KwUnion,
  KwPublic,
  KwPrivate,
  KwProtected,
  KwVirtual,
  KwVolatile,
  KwConst,
  KwVoid,
  KwBool,
  KwChar,
  KwInt,
  KwDouble,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwBreak,
  KwContinue,
  KwReturn,
  KwNew,
  KwDelete,
  KwThis,
  KwSizeof,
  KwStaticCast,
  KwReinterpretCast,
  KwTrue,
  KwFalse,
  KwNullptr,

  // Punctuation and operators.
  LBrace,       // {
  RBrace,       // }
  LParen,       // (
  RParen,       // )
  LBracket,     // [
  RBracket,     // ]
  Semi,         // ;
  Comma,        // ,
  Colon,        // :
  ColonColon,   // ::
  Period,       // .
  Arrow,        // ->
  PeriodStar,   // .*
  ArrowStar,    // ->*
  Amp,          // &
  AmpAmp,       // &&
  Pipe,         // |
  PipePipe,     // ||
  Caret,        // ^
  Tilde,        // ~
  Exclaim,      // !
  Plus,         // +
  Minus,        // -
  Star,         // *
  Slash,        // /
  Percent,      // %
  Equal,        // =
  EqualEqual,   // ==
  ExclaimEqual, // !=
  Less,         // <
  Greater,      // >
  LessEqual,    // <=
  GreaterEqual, // >=
  LessLess,     // <<
  GreaterGreater, // >>
  PlusEqual,    // +=
  MinusEqual,   // -=
  StarEqual,    // *=
  SlashEqual,   // /=
  PercentEqual, // %=
  PlusPlus,     // ++
  MinusMinus,   // --
  Question,     // ?
};

/// Returns a stable display name for \p Kind (e.g. "'::'" or "identifier").
const char *tokenKindName(TokenKind Kind);

/// A lexed token: where its spelling starts, how long it is, and its
/// kind. Sixteen bytes and trivially copyable, so a whole file's tokens
/// are one flat array. The spelling itself stays in the SourceManager's
/// buffer (Lexer::spelling); literal values are decoded from it on
/// demand (Lexer::intValue and friends) by whoever needs them.
struct Token {
  SourceLocation Loc;
  uint32_t Length = 0;
  TokenKind Kind = TokenKind::Unknown;

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
  bool isOneOf(TokenKind K1, TokenKind K2) const { return is(K1) || is(K2); }
  template <typename... Ts>
  bool isOneOf(TokenKind K1, TokenKind K2, Ts... Ks) const {
    return is(K1) || isOneOf(K2, Ks...);
  }
};

} // namespace dmm

#endif // DMM_LEXER_TOKEN_H
