//===-- tests/LexerTest.cpp - Lexer tests ---------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include "gtest/gtest.h"

#include <climits>
#include <type_traits>
#include <utility>

using namespace dmm;

namespace {

static_assert(sizeof(Token) <= 16 && std::is_trivially_copyable_v<Token>,
              "a Token is a 16-byte position, not a payload carrier");

/// Every buffer these tests lex lives in one SourceManager for the
/// process, so a token's spelling can be found from its FileID.
SourceManager &testSources() {
  static SourceManager SM;
  return SM;
}

/// The spelling of a token returned by lexAll below.
std::string_view text(const Token &T) {
  return Lexer::spelling(testSources().bufferText(T.Loc.fileID()), T);
}

std::vector<Token> lexAll(const std::string &Text, unsigned *Errors = nullptr) {
  SourceManager &SM = testSources();
  uint32_t ID = SM.addBuffer("test.mcc", Text);
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  auto Tokens = L.lexAll();
  if (Errors)
    *Errors = Diags.errorCount();
  return Tokens;
}

std::vector<TokenKind> kindsOf(const std::string &Text) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : lexAll(Text))
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInputYieldsEOF) {
  EXPECT_EQ(kindsOf(""), std::vector<TokenKind>{TokenKind::EndOfFile});
}

TEST(Lexer, Identifiers) {
  auto Tokens = lexAll("foo _bar baz42");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(text(Tokens[0]), "foo");
  EXPECT_EQ(text(Tokens[1]), "_bar");
  EXPECT_EQ(text(Tokens[2]), "baz42");
}

TEST(Lexer, KeywordsAreDistinguishedFromIdentifiers) {
  auto Tokens = lexAll("class classy virtual virtually");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwClass);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::KwVirtual);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Identifier);
}

TEST(Lexer, EveryKeywordSpellingMapsToItsKind) {
  const std::pair<const char *, TokenKind> Keywords[] = {
      {"class", TokenKind::KwClass},
      {"struct", TokenKind::KwStruct},
      {"union", TokenKind::KwUnion},
      {"public", TokenKind::KwPublic},
      {"private", TokenKind::KwPrivate},
      {"protected", TokenKind::KwProtected},
      {"virtual", TokenKind::KwVirtual},
      {"volatile", TokenKind::KwVolatile},
      {"const", TokenKind::KwConst},
      {"void", TokenKind::KwVoid},
      {"bool", TokenKind::KwBool},
      {"char", TokenKind::KwChar},
      {"int", TokenKind::KwInt},
      {"double", TokenKind::KwDouble},
      {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"for", TokenKind::KwFor},
      {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue},
      {"return", TokenKind::KwReturn},
      {"new", TokenKind::KwNew},
      {"delete", TokenKind::KwDelete},
      {"this", TokenKind::KwThis},
      {"sizeof", TokenKind::KwSizeof},
      {"static_cast", TokenKind::KwStaticCast},
      {"reinterpret_cast", TokenKind::KwReinterpretCast},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"nullptr", TokenKind::KwNullptr},
  };
  for (const auto &[Spelling, Kind] : Keywords) {
    auto Tokens = lexAll(Spelling);
    ASSERT_EQ(Tokens.size(), 2u) << Spelling;
    EXPECT_EQ(Tokens[0].Kind, Kind) << Spelling;
    EXPECT_EQ(text(Tokens[0]), Spelling);
  }
}

TEST(Lexer, KeywordNearMissesAreIdentifiers) {
  for (const char *Spelling : {"classy", "in", "intx", "Class", "_if",
                               "static_casts", "nullptr_", "thiss", "tru",
                               "dbl", "sizeo", "reinterpret_cas"}) {
    auto Tokens = lexAll(Spelling);
    ASSERT_EQ(Tokens.size(), 2u) << Spelling;
    EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier) << Spelling;
    EXPECT_EQ(text(Tokens[0]), Spelling);
  }
}

TEST(Lexer, LiteralsDecodeOnDemand) {
  unsigned Errors = 0;
  auto Tokens = lexAll(R"(0 123456789 3.25 2.5e-2 '\'' '\0' "a\"b\\")",
                       &Errors);
  EXPECT_EQ(Errors, 0u);
  ASSERT_EQ(Tokens.size(), 8u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Lexer::intValue(text(Tokens[0])), 0);
  EXPECT_EQ(Lexer::intValue(text(Tokens[1])), 123456789);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Lexer::doubleValue(text(Tokens[2])), 3.25);
  EXPECT_DOUBLE_EQ(Lexer::doubleValue(text(Tokens[3])), 0.025);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::CharLiteral);
  EXPECT_EQ(Lexer::charValue(text(Tokens[4])), '\'');
  EXPECT_EQ(Lexer::charValue(text(Tokens[5])), '\0');
  EXPECT_EQ(Tokens[6].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(text(Tokens[6]), R"("a\"b\\")");
  EXPECT_EQ(Lexer::stringValue(text(Tokens[6])), "a\"b\\");
}

TEST(Lexer, UnknownEscapeDecodesToItsCharacterAndIsDiagnosedOnce) {
  unsigned Errors = 0;
  auto Tokens = lexAll(R"('\q')", &Errors);
  EXPECT_EQ(Errors, 1u);
  ASSERT_EQ(Tokens[0].Kind, TokenKind::CharLiteral);
  EXPECT_EQ(Lexer::charValue(text(Tokens[0])), 'q');
}

TEST(Lexer, OverlongIntegerSaturates) {
  auto Tokens = lexAll("99999999999999999999");
  ASSERT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Lexer::intValue(text(Tokens[0])), LLONG_MAX);
}

TEST(Lexer, IntegerLiterals) {
  auto Tokens = lexAll("0 42 123456789");
  EXPECT_EQ(Lexer::intValue(text(Tokens[0])), 0);
  EXPECT_EQ(Lexer::intValue(text(Tokens[1])), 42);
  EXPECT_EQ(Lexer::intValue(text(Tokens[2])), 123456789);
}

TEST(Lexer, DoubleLiterals) {
  auto Tokens = lexAll("3.25 1e3 2.5e-2");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Lexer::doubleValue(text(Tokens[0])), 3.25);
  EXPECT_DOUBLE_EQ(Lexer::doubleValue(text(Tokens[1])), 1000.0);
  EXPECT_DOUBLE_EQ(Lexer::doubleValue(text(Tokens[2])), 0.025);
}

TEST(Lexer, IntFollowedByMemberAccessIsNotADouble) {
  // `x.y` after a digit: `1.f` style is not in the language; but `a[1].m`
  // must lex `1` `]` `.` `m`.
  auto Kinds = kindsOf("a[1].m");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::LBracket, TokenKind::IntLiteral,
      TokenKind::RBracket,   TokenKind::Period,   TokenKind::Identifier,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, CharLiteralsWithEscapes) {
  auto Tokens = lexAll(R"('a' '\n' '\0' '\\')");
  EXPECT_EQ(Lexer::charValue(text(Tokens[0])), 'a');
  EXPECT_EQ(Lexer::charValue(text(Tokens[1])), '\n');
  EXPECT_EQ(Lexer::charValue(text(Tokens[2])), 0);
  EXPECT_EQ(Lexer::charValue(text(Tokens[3])), '\\');
}

TEST(Lexer, StringLiteralsWithEscapes) {
  auto Tokens = lexAll(R"("hello\tworld\n")");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Lexer::stringValue(text(Tokens[0])), "hello\tworld\n");
}

TEST(Lexer, CompoundPunctuation) {
  auto Kinds = kindsOf(":: -> ->* .* ++ -- << >> <= >= == != && || += %=");
  std::vector<TokenKind> Expected = {
      TokenKind::ColonColon,   TokenKind::Arrow,
      TokenKind::ArrowStar,    TokenKind::PeriodStar,
      TokenKind::PlusPlus,     TokenKind::MinusMinus,
      TokenKind::LessLess,     TokenKind::GreaterGreater,
      TokenKind::LessEqual,    TokenKind::GreaterEqual,
      TokenKind::EqualEqual,   TokenKind::ExclaimEqual,
      TokenKind::AmpAmp,       TokenKind::PipePipe,
      TokenKind::PlusEqual,    TokenKind::PercentEqual,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, LineCommentsAreSkipped) {
  auto Kinds = kindsOf("a // comment with ; and {\nb");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, BlockCommentsAreSkipped) {
  auto Kinds = kindsOf("a /* multi\nline\ncomment */ b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, UnterminatedBlockCommentIsAnError) {
  unsigned Errors = 0;
  lexAll("a /* never closed", &Errors);
  EXPECT_EQ(Errors, 1u);
}

TEST(Lexer, UnterminatedStringIsAnError) {
  unsigned Errors = 0;
  lexAll("\"open\n", &Errors);
  EXPECT_GE(Errors, 1u);
}

TEST(Lexer, UnknownCharacterIsAnError) {
  unsigned Errors = 0;
  auto Tokens = lexAll("a @ b", &Errors);
  EXPECT_EQ(Errors, 1u);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Unknown);
}

TEST(Lexer, LocationsTrackLinesAndColumns) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("t.mcc", "ab\n  cd\n");
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  Token T1 = L.lex();
  Token T2 = L.lex();
  PresumedLoc P1 = SM.presumedLoc(T1.Loc);
  PresumedLoc P2 = SM.presumedLoc(T2.Loc);
  EXPECT_EQ(P1.Line, 1u);
  EXPECT_EQ(P1.Column, 1u);
  EXPECT_EQ(P2.Line, 2u);
  EXPECT_EQ(P2.Column, 3u);
}

TEST(Lexer, MinusGreaterStarNeedsAllThreeChars) {
  auto Kinds = kindsOf("a - > b");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Minus, TokenKind::Greater,
      TokenKind::Identifier, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, EOFIsSticky) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("t.mcc", "x");
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  L.lex();
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
}

} // namespace
