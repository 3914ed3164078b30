//===-- lexer/Lexer.h - MiniC++ lexer ---------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the MiniC++ subset. Produces a stream of Tokens;
/// comments and whitespace are skipped. Malformed literals are reported via
/// the DiagnosticsEngine and yield Unknown tokens, which the parser treats
/// as hard errors.
///
/// Tokens carry no decoded payload. A literal's value is decoded from its
/// spelling by the static helpers below when the parser builds the
/// literal node; they assume a token this lexer accepted, so they never
/// diagnose (the lexer already did, once).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_LEXER_LEXER_H
#define DMM_LEXER_LEXER_H

#include "lexer/Token.h"

#include <string>
#include <string_view>
#include <vector>

namespace dmm {

class DiagnosticsEngine;
class SourceManager;

/// Converts one source buffer into tokens.
class Lexer {
public:
  /// \param FileID buffer to lex, previously registered with \p SM.
  Lexer(const SourceManager &SM, uint32_t FileID, DiagnosticsEngine &Diags);

  /// Lexes and returns the next token; returns EndOfFile forever at the end.
  Token lex();

  /// Lexes the whole buffer. The trailing EndOfFile token is included.
  std::vector<Token> lexAll();

  /// \name On-demand token decoding
  /// @{
  /// The spelling of \p T within \p Buffer, the text of the buffer \p T
  /// was lexed from.
  static std::string_view spelling(std::string_view Buffer, const Token &T) {
    return Buffer.substr(T.Loc.offset(), T.Length);
  }
  /// Value of an IntLiteral spelling; saturates at LLONG_MAX like strtoll.
  static long long intValue(std::string_view Spelling);
  /// Value of a DoubleLiteral spelling.
  static double doubleValue(std::string_view Spelling);
  /// Value of a CharLiteral spelling (quotes included); `''` is 0.
  static char charValue(std::string_view Spelling);
  /// Unescaped contents of a StringLiteral spelling (quotes included).
  static std::string stringValue(std::string_view Spelling);
  /// @}

private:
  char peek(unsigned LookAhead = 0) const;
  char advance();
  bool match(char Expected);
  SourceLocation curLoc() const;
  void skipTrivia();

  Token makeToken(TokenKind Kind, uint32_t Begin);
  Token lexIdentifierOrKeyword();
  Token lexNumber();
  Token lexCharLiteral();
  Token lexStringLiteral();
  /// Consumes the escape sequence after a backslash, diagnosing a
  /// missing or unknown one.
  void lexEscape();

  const SourceManager &SM;
  DiagnosticsEngine &Diags;
  std::string_view Text;
  uint32_t FileID;
  uint32_t Pos = 0;
};

} // namespace dmm

#endif // DMM_LEXER_LEXER_H
