//===-- parser/Parser.h - MiniC++ parser ------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC++. The parser is purely syntactic:
/// it resolves class names (needed to disambiguate declarations from
/// expressions and casts from parenthesized expressions) but leaves
/// variable references, member lookups, and types of expressions to Sema.
///
/// Classes must be declared (at least forward-declared) before their names
/// are used as types; functions called before their definition need a
/// prototype. Method bodies may reference members declared later in their
/// class because resolution happens in the later Sema pass.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_PARSER_PARSER_H
#define DMM_PARSER_PARSER_H

#include "ast/ASTContext.h"
#include "lexer/Lexer.h"

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dmm {

class DiagnosticsEngine;
class SourceManager;

/// Parses one or more source buffers into an ASTContext's translation
/// unit.
class Parser {
public:
  Parser(ASTContext &Ctx, const SourceManager &SM, DiagnosticsEngine &Diags);

  /// Parses one buffer's pre-lexed token stream, appending top-level
  /// declarations to the translation unit (the lexer runs per-file in
  /// parallel; parsing stays sequential because it appends to the
  /// shared ASTContext and accumulates the class-name table across
  /// files). \p Tokens must end with EndOfFile. Returns false if any
  /// syntax error was reported.
  bool parseTokens(std::vector<Token> Tokens);

private:
  /// \name Token stream helpers
  /// @{
  const Token &tok(unsigned LookAhead = 0) const;
  const Token &cur() const { return tok(0); }
  /// The spelling of \p T in the buffer being parsed.
  std::string_view text(const Token &T) const {
    return Lexer::spelling(Buffer, T);
  }
  void consume();
  bool tryConsume(TokenKind K);
  /// Consumes a token of kind \p K or reports an error. Returns success.
  bool expect(TokenKind K, const char *Context);
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();
  /// @}

  /// \name Type-name tracking
  /// @{
  bool isTypeName(const Token &T) const;
  /// True if a type starts at lookahead \p At (builtin keyword or known
  /// class name).
  bool startsType(unsigned At = 0) const;
  ClassDecl *lookupClass(std::string_view Name) const;
  ClassDecl *getOrCreateClass(TagKind Tag, const std::string &Name,
                              SourceLocation Loc);
  /// @}

  /// \name Declarations
  /// @{
  void parseTopLevelDecl();
  void parseClass(TagKind Tag);
  void parseClassBody(ClassDecl *CD);
  void parseMember(ClassDecl *CD);
  void parseCtorInitList(ConstructorDecl *Ctor, ClassDecl *CD);
  /// Parses an out-of-line definition `C::name(...)`, `C::C(...)`, or
  /// `C::~C(...)`. \p ReturnTy is null for ctors/dtors.
  void parseOutOfLineMember(const Type *ReturnTy);
  /// Parses a function prototype/definition or global variable(s) once
  /// the leading type has been parsed.
  void parseFunctionOrGlobal(const Type *Ty);
  void parseParamList(FunctionDecl *FD);
  /// @}

  /// \name Types
  /// @{
  /// Parses a type: specifiers, base type, pointer/reference suffixes,
  /// member-pointer suffix. Returns null and diagnoses on failure.
  const Type *parseType();
  /// Parses optional declarator suffixes for a variable of base type
  /// \p Ty named at the current token: function-pointer form
  /// `(*name)(params)` or `name[N]` arrays. Emits the variable name in
  /// \p Name. Returns the final type.
  const Type *parseDeclarator(const Type *Ty, std::string &Name,
                              SourceLocation &NameLoc);
  /// @}

  /// \name Statements
  /// @{
  Stmt *parseStmt();
  CompoundStmt *parseCompoundStmt();
  Stmt *parseDeclStmt();
  Stmt *parseIfStmt();
  Stmt *parseWhileStmt();
  Stmt *parseForStmt();
  Stmt *parseReturnStmt();
  /// @}

  /// \name Expressions
  /// @{
  Expr *parseExpr();       ///< Includes comma.
  Expr *parseAssign();     ///< Assignment / conditional and below.
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();
  Expr *parseNew();
  std::vector<Expr *> parseCallArgs();
  /// @}

  ASTContext &Ctx;
  const SourceManager &SM;
  DiagnosticsEngine &Diags;

  std::vector<Token> Tokens;
  std::string_view Buffer; ///< Text of the buffer Tokens were lexed from.
  size_t Pos = 0;
  unsigned StartErrors = 0;

  /// Hashes std::string and std::string_view alike, so the name tables
  /// below can be probed with a token's spelling without copying it.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  template <typename T>
  using NameMap = std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

  /// Class names visible so far (forward declarations included).
  NameMap<ClassDecl *> ClassNames;

  /// Free-function names seen so far (prototypes and definitions), used
  /// to merge a definition into its earlier prototype.
  NameMap<FunctionDecl *> FunctionNames;
};

} // namespace dmm

#endif // DMM_PARSER_PARSER_H
