//===- Parser.h - C-minus parser --------------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for C-minus. Qualifier names are supplied by the
/// caller (they come from loaded qualifier definitions, mirroring the
/// paper's gcc-attribute macros) and are accepted in postfix position after
/// any type. The parser resolves variable names against lexical scopes as it
/// goes; C-minus is declare-before-use.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_PARSER_H
#define STQ_CMINUS_PARSER_H

#include "cminus/AST.h"
#include "support/Diagnostics.h"
#include "support/Lexer.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stq::cminus {

/// Parses one C-minus translation unit.
///
/// \param Source the program text.
/// \param QualifierNames identifiers to recognize as type qualifiers.
/// \param Diags receives parse errors (phase "parse").
/// \returns the parsed program; inspect Diags.hasErrors() for validity.
std::unique_ptr<Program> parseProgram(const std::string &Source,
                                      const std::vector<std::string>
                                          &QualifierNames,
                                      DiagnosticEngine &Diags);

namespace detail {

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::set<std::string> QualifierNames,
         DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), QualifierNames(std::move(QualifierNames)),
        Diags(Diags), Prog(std::make_unique<Program>()) {}

  std::unique_ptr<Program> run();

private:
  // Token plumbing.
  const Token &peek(unsigned Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind K) const { return peek().is(K); }
  bool checkIdent(const char *S) const { return peek().isIdent(S); }
  bool match(TokenKind K);
  bool matchIdent(const char *S);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Message);
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();

  // Scopes.
  void pushScope();
  void popScope();
  VarDecl *lookupVar(std::string_view Name) const;
  void declareVar(VarDecl *Var);

  // Types.
  bool atTypeStart() const;
  /// Parses `basetype quals* ('*' quals*)*`; returns null on error.
  TypePtr parseType();
  /// Applies any postfix qualifiers at the cursor to \p Ty.
  TypePtr parseQuals(TypePtr Ty);

  // Top level.
  void parseTopLevel();
  void parseStructDef();
  void parseFunctionRest(TypePtr RetTy, std::string_view Name, SourceLoc Loc);
  void parseGlobalRest(TypePtr Ty, std::string_view Name, SourceLoc Loc);

  // Statements.
  Stmt *parseStmt();
  BlockStmt *parseBlock();
  Stmt *parseDeclStmt();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseFor();
  Stmt *parseReturn();
  Stmt *parseExprOrAssign();

  // Expressions (precedence climbing).
  Expr *parseExpr();
  Expr *parseLOr();
  Expr *parseLAnd();
  Expr *parseEquality();
  Expr *parseRelational();
  Expr *parseAdditive();
  Expr *parseMultiplicative();
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  /// Requires \p E to be an l-value read and returns the l-value; reports an
  /// error and returns null otherwise.
  LValue *requireLValue(Expr *E, const char *Context);
  /// Makes a placeholder int expression after an error.
  Expr *makeErrorExpr(SourceLoc Loc);
  /// Extends \p LV's field path by \p Field.
  void appendField(LValue *LV, std::string_view Field);

  /// Hard cap on expression/statement nesting. Recursive descent uses the
  /// native stack, so an adversarial `((((...` tower would otherwise
  /// overflow it; past the cap the parser diagnoses once, resynchronizes,
  /// and keeps going.
  static constexpr unsigned MaxNestingDepth = 200;
  /// True when nesting is within bounds; otherwise reports the (one)
  /// too-deep diagnostic, skips to a statement boundary, and returns false.
  bool checkDepth();

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::set<std::string> QualifierNames;
  DiagnosticEngine &Diags;
  std::unique_ptr<Program> Prog;

  /// The innermost visible declaration of each name, with the scope depth
  /// that declared it. Leaving a scope restores shadowed bindings from
  /// ScopeUndo (entries above the scope's ScopeMarks slot) and keeps
  /// unbound names' entries, so a name reused across functions costs one
  /// map node per unit.
  struct Binding {
    VarDecl *Var = nullptr;
    unsigned Depth = 0;
  };
  std::unordered_map<std::string_view, Binding> Visible;
  std::vector<std::pair<std::string_view, Binding>> ScopeUndo;
  std::vector<size_t> ScopeMarks;

  // Scratch stacks for child lists; nested lists push above their parent's
  // entries and pop them when copied into the arena.
  std::vector<std::string_view> QualScratch;
  std::vector<Stmt *> StmtScratch;
  std::vector<Expr *> ArgScratch;
  std::vector<VarDecl *> ParamScratch;
  std::vector<StructDef::Field> FieldScratch;
  std::vector<std::string_view> PathScratch;
  unsigned Depth = 0;
  bool DepthErrorReported = false;
  /// Diagnostics cap for pathological input; the last slot reports the
  /// suppression itself.
  static constexpr unsigned MaxParseErrors = 64;
  unsigned ErrorCount = 0;
};

} // namespace detail

} // namespace stq::cminus

#endif // STQ_CMINUS_PARSER_H
