//===- Parser.cpp ---------------------------------------------------------===//

#include "cminus/Parser.h"

#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace stq;
using namespace stq::cminus;
using namespace stq::cminus::detail;

std::unique_ptr<Program> stq::cminus::parseProgram(
    const std::string &Source,
    const std::vector<std::string> &QualifierNames, DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens;
  {
    trace::Span LexSpan("lex");
    Tokens = Lex.tokenize();
  }
  trace::Span ParseSpan("parse");
  std::set<std::string> QualSet(QualifierNames.begin(), QualifierNames.end());
  Parser P(std::move(Tokens), std::move(QualSet), Diags);
  return P.run();
}

//===----------------------------------------------------------------------===//
// Token plumbing
//===----------------------------------------------------------------------===//

const Token &Parser::peek(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // EndOfFile sentinel.
  return Tokens[Index];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

bool Parser::matchIdent(const char *S) {
  if (!checkIdent(S))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (match(K))
    return true;
  error(std::string("expected ") + tokenKindName(K) + " " + Context +
        ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::error(const std::string &Message) {
  // Cap the flood: malformed input (fuzzed bytes, deep-nesting recovery)
  // can otherwise produce one diagnostic per token.
  ++ErrorCount;
  if (ErrorCount > MaxParseErrors)
    return;
  if (ErrorCount == MaxParseErrors) {
    Diags.error(peek().Loc, "parse",
                "too many parse errors; suppressing further diagnostics");
    return;
  }
  Diags.error(peek().Loc, "parse", Message);
}

void Parser::synchronize() {
  while (!check(TokenKind::EndOfFile)) {
    if (match(TokenKind::Semi))
      return;
    if (check(TokenKind::RBrace))
      return;
    advance();
  }
}

namespace {
/// Increments a nesting counter for the lifetime of one recursive parse
/// call.
struct DepthScope {
  unsigned &Depth;
  explicit DepthScope(unsigned &Depth) : Depth(Depth) { ++Depth; }
  ~DepthScope() { --Depth; }
};
} // namespace

bool Parser::checkDepth() {
  if (Depth < MaxNestingDepth)
    return true;
  if (!DepthErrorReported) {
    error("nesting too deep: more than " + std::to_string(MaxNestingDepth) +
          " levels of nested expressions or statements");
    DepthErrorReported = true;
  }
  synchronize();
  return false;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

void Parser::pushScope() { ScopeMarks.push_back(ScopeUndo.size()); }

void Parser::popScope() {
  assert(!ScopeMarks.empty() && "popScope without matching push");
  size_t Mark = ScopeMarks.back();
  ScopeMarks.pop_back();
  while (ScopeUndo.size() > Mark) {
    Visible[ScopeUndo.back().first] = ScopeUndo.back().second;
    ScopeUndo.pop_back();
  }
}

VarDecl *Parser::lookupVar(std::string_view Name) const {
  auto It = Visible.find(Name);
  return It == Visible.end() ? nullptr : It->second.Var;
}

void Parser::declareVar(VarDecl *Var) {
  assert(!ScopeMarks.empty() && "declaration outside any scope");
  unsigned Depth = static_cast<unsigned>(ScopeMarks.size());
  Binding &B = Visible[Var->Name];
  if (B.Var && B.Depth == Depth) {
    Diags.error(Var->Loc, "parse",
                "redeclaration of '" + std::string(Var->Name) +
                    "' in the same scope");
    return;
  }
  ScopeUndo.emplace_back(Var->Name, B);
  B = {Var, Depth};
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::atTypeStart() const {
  return checkIdent("void") || checkIdent("int") || checkIdent("char") ||
         checkIdent("struct");
}

TypePtr Parser::parseQuals(TypePtr Ty) {
  QualScratch.clear();
  while (check(TokenKind::Identifier) &&
         QualifierNames.count(peek().Text) != 0)
    QualScratch.push_back(advance().Text);
  if (QualScratch.empty())
    return Ty;
  return Prog->types().withQuals(Ty, QualScratch);
}

TypePtr Parser::parseType() {
  TypeContext &Types = Prog->types();
  TypePtr Base = nullptr;
  if (matchIdent("void")) {
    Base = Types.getVoid();
  } else if (matchIdent("int")) {
    Base = Types.getInt();
  } else if (matchIdent("char")) {
    Base = Types.getChar();
  } else if (matchIdent("struct")) {
    if (!check(TokenKind::Identifier)) {
      error("expected struct name");
      return nullptr;
    }
    Base = Types.getStruct(advance().Text);
  } else {
    error("expected type");
    return nullptr;
  }
  Base = parseQuals(Base);
  while (match(TokenKind::Star))
    Base = parseQuals(Types.getPointer(Base));
  return Base;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> Parser::run() {
  pushScope(); // Global scope.
  while (!check(TokenKind::EndOfFile)) {
    size_t Before = Pos;
    parseTopLevel();
    // Guarantee progress on malformed input (e.g. a stray '}' at top
    // level, where synchronize() deliberately stops without consuming).
    if (Pos == Before)
      advance();
  }
  popScope();
  return std::move(Prog);
}

void Parser::parseTopLevel() {
  // Struct definition: 'struct' IDENT '{'.
  if (checkIdent("struct") && peek(1).is(TokenKind::Identifier) &&
      peek(2).is(TokenKind::LBrace)) {
    parseStructDef();
    return;
  }
  if (!atTypeStart()) {
    error("expected declaration at top level, found " +
          std::string(tokenKindName(peek().Kind)));
    synchronize();
    return;
  }
  SourceLoc Loc = peek().Loc;
  TypePtr Ty = parseType();
  if (!Ty) {
    synchronize();
    return;
  }
  if (!check(TokenKind::Identifier)) {
    error("expected declarator name");
    synchronize();
    return;
  }
  std::string_view Name = advance().Text;
  if (check(TokenKind::LParen))
    parseFunctionRest(Ty, Name, Loc);
  else
    parseGlobalRest(Ty, Name, Loc);
}

void Parser::parseStructDef() {
  SourceLoc Loc = advance().Loc; // 'struct'
  std::string_view Name = advance().Text;
  StructDef *Def = Prog->Ctx.createStruct(Name, Loc);
  expect(TokenKind::LBrace, "after struct name");
  FieldScratch.clear();
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    TypePtr FieldTy = parseType();
    if (!FieldTy) {
      synchronize();
      continue;
    }
    if (!check(TokenKind::Identifier)) {
      error("expected field name");
      synchronize();
      continue;
    }
    const std::string &FieldName = advance().Text;
    if (std::any_of(FieldScratch.begin(), FieldScratch.end(),
                    [&](const StructDef::Field &F) {
                      return F.Name == FieldName;
                    }))
      error("duplicate field '" + FieldName + "'");
    FieldScratch.push_back({Prog->Ctx.copyString(FieldName), FieldTy});
    expect(TokenKind::Semi, "after struct field");
  }
  Def->Fields = Prog->Ctx.copyArray<StructDef::Field>(FieldScratch);
  expect(TokenKind::RBrace, "to close struct definition");
  expect(TokenKind::Semi, "after struct definition");
  Prog->Structs.push_back(Def);
}

void Parser::parseFunctionRest(TypePtr RetTy, std::string_view Name,
                               SourceLoc Loc) {
  FuncDecl *Fn = Prog->Ctx.createFunc(Name, RetTy, Loc);
  expect(TokenKind::LParen, "after function name");
  ParamScratch.clear();
  pushScope(); // Parameter scope.
  if (checkIdent("void") && peek(1).is(TokenKind::RParen)) {
    advance(); // `f(void)`: explicit empty parameter list.
  } else if (!check(TokenKind::RParen)) {
    while (true) {
      if (match(TokenKind::Ellipsis)) {
        Fn->Variadic = true;
        break;
      }
      TypePtr ParamTy = parseType();
      if (!ParamTy)
        break;
      std::string_view ParamName;
      SourceLoc ParamLoc = peek().Loc;
      if (check(TokenKind::Identifier) &&
          QualifierNames.count(peek().Text) == 0)
        ParamName = advance().Text;
      VarDecl *Param = Prog->Ctx.createVar(ParamName, ParamTy, ParamLoc);
      Param->IsParam = true;
      if (!ParamName.empty())
        declareVar(Param);
      ParamScratch.push_back(Param);
      if (!match(TokenKind::Comma))
        break;
    }
  }
  Fn->Params = Prog->Ctx.copyArray<VarDecl *>(ParamScratch);
  expect(TokenKind::RParen, "to close parameter list");

  // Merge with a previous prototype if one exists.
  if (FuncDecl *Prev = Prog->findFunction(Name)) {
    if (Prev->isDefinition() && check(TokenKind::LBrace))
      Diags.error(Loc, "parse",
                  "redefinition of function '" + std::string(Name) + "'");
  } else {
    Prog->Functions.push_back(Fn);
  }

  if (check(TokenKind::LBrace)) {
    // If a prototype exists, replace its entry so calls resolve to the
    // definition.
    for (auto &Entry : Prog->Functions)
      if (Entry->Name == Name)
        Entry = Fn;
    Fn->Body = parseBlock();
  } else {
    expect(TokenKind::Semi, "after function prototype");
  }
  popScope();
}

void Parser::parseGlobalRest(TypePtr Ty, std::string_view Name,
                             SourceLoc Loc) {
  VarDecl *Var = Prog->Ctx.createVar(Name, Ty, Loc);
  Var->IsGlobal = true;
  declareVar(Var);
  Prog->Globals.push_back(Var);
  if (match(TokenKind::Eq))
    Var->Init = parseExpr();
  expect(TokenKind::Semi, "after global declaration");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

BlockStmt *Parser::parseBlock() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::LBrace, "to open block");
  auto *Block = Prog->Ctx.createStmt<BlockStmt>(Loc);
  pushScope();
  size_t Base = StmtScratch.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (Stmt *S = parseStmt())
      StmtScratch.push_back(S);
  }
  Block->Stmts = Prog->Ctx.copyArray<Stmt *>(
      std::span(StmtScratch).subspan(Base));
  StmtScratch.resize(Base);
  popScope();
  expect(TokenKind::RBrace, "to close block");
  return Block;
}

Stmt *Parser::parseStmt() {
  if (!checkDepth())
    return nullptr;
  DepthScope Scope(Depth);
  if (check(TokenKind::LBrace))
    return parseBlock();
  if (atTypeStart())
    return parseDeclStmt();
  if (checkIdent("if"))
    return parseIf();
  if (checkIdent("while"))
    return parseWhile();
  if (checkIdent("for"))
    return parseFor();
  if (checkIdent("return"))
    return parseReturn();
  if (checkIdent("break")) {
    SourceLoc Loc = advance().Loc;
    expect(TokenKind::Semi, "after 'break'");
    return Prog->Ctx.createStmt<BreakStmt>(Loc);
  }
  if (checkIdent("continue")) {
    SourceLoc Loc = advance().Loc;
    expect(TokenKind::Semi, "after 'continue'");
    return Prog->Ctx.createStmt<ContinueStmt>(Loc);
  }
  return parseExprOrAssign();
}

Stmt *Parser::parseDeclStmt() {
  SourceLoc Loc = peek().Loc;
  TypePtr Ty = parseType();
  if (!Ty) {
    synchronize();
    return nullptr;
  }
  if (!check(TokenKind::Identifier)) {
    error("expected variable name in declaration");
    synchronize();
    return nullptr;
  }
  std::string_view Name = advance().Text;
  VarDecl *Var = Prog->Ctx.createVar(Name, Ty, Loc);
  if (match(TokenKind::Eq))
    Var->Init = parseExpr();
  declareVar(Var);
  expect(TokenKind::Semi, "after declaration");
  return Prog->Ctx.createStmt<DeclStmt>(Var, Loc);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = advance().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "to close if condition");
  Stmt *Then = parseStmt();
  Stmt *Else = nullptr;
  if (matchIdent("else"))
    Else = parseStmt();
  return Prog->Ctx.createStmt<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = advance().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "to close while condition");
  Stmt *Body = parseStmt();
  return Prog->Ctx.createStmt<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = advance().Loc; // 'for'
  expect(TokenKind::LParen, "after 'for'");
  pushScope();
  Stmt *Init = nullptr;
  if (!check(TokenKind::Semi)) {
    if (atTypeStart())
      Init = parseDeclStmt(); // Consumes the ';'.
    else
      Init = parseExprOrAssign(); // Consumes the ';'.
  } else {
    advance();
  }
  Expr *Cond = nullptr;
  if (!check(TokenKind::Semi))
    Cond = parseExpr();
  expect(TokenKind::Semi, "after for condition");
  Stmt *Step = nullptr;
  if (!check(TokenKind::RParen)) {
    // The step is an assignment or call without the trailing ';'.
    Expr *E = parseExpr();
    if (match(TokenKind::Eq)) {
      LValue *LV = requireLValue(E, "on the left of '='");
      Expr *RHS = parseExpr();
      if (LV)
        Step = Prog->Ctx.createStmt<AssignStmt>(LV, RHS, E->Loc);
    } else if (auto *Call = dyn_cast<CallExpr>(E)) {
      Step = Prog->Ctx.createStmt<CallStmt>(Call, E->Loc);
    } else {
      error("for-step must be an assignment or a call");
    }
  }
  expect(TokenKind::RParen, "to close for header");
  Stmt *Body = parseStmt();
  popScope();
  return Prog->Ctx.createStmt<ForStmt>(Init, Cond, Step, Body, Loc);
}

Stmt *Parser::parseReturn() {
  SourceLoc Loc = advance().Loc; // 'return'
  Expr *Value = nullptr;
  if (!check(TokenKind::Semi))
    Value = parseExpr();
  expect(TokenKind::Semi, "after return statement");
  return Prog->Ctx.createStmt<ReturnStmt>(Value, Loc);
}

Stmt *Parser::parseExprOrAssign() {
  SourceLoc Loc = peek().Loc;
  Expr *E = parseExpr();
  if (match(TokenKind::Eq)) {
    LValue *LV = requireLValue(E, "on the left of '='");
    Expr *RHS = parseExpr();
    expect(TokenKind::Semi, "after assignment");
    if (!LV)
      return nullptr;
    return Prog->Ctx.createStmt<AssignStmt>(LV, RHS, Loc);
  }
  expect(TokenKind::Semi, "after expression statement");
  if (auto *Call = dyn_cast<CallExpr>(E))
    return Prog->Ctx.createStmt<CallStmt>(Call, Loc);
  error("expression statement must be a call");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

LValue *Parser::requireLValue(Expr *E, const char *Context) {
  if (auto *Read = dyn_cast<LValReadExpr>(E))
    return Read->LV;
  error(std::string("expected an l-value ") + Context);
  return nullptr;
}

Expr *Parser::makeErrorExpr(SourceLoc Loc) {
  return Prog->Ctx.createExpr<IntConstExpr>(0, Loc);
}

void Parser::appendField(LValue *LV, std::string_view Field) {
  PathScratch.assign(LV->Fields.begin(), LV->Fields.end());
  PathScratch.push_back(Prog->Ctx.copyString(Field));
  LV->Fields = Prog->Ctx.copyArray<std::string_view>(PathScratch);
}

Expr *Parser::parseExpr() {
  if (!checkDepth())
    return makeErrorExpr(peek().Loc);
  DepthScope Scope(Depth);
  return parseLOr();
}

Expr *Parser::parseLOr() {
  Expr *LHS = parseLAnd();
  while (check(TokenKind::PipePipe)) {
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseLAnd();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(BinaryOp::LOr, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseLAnd() {
  Expr *LHS = parseEquality();
  while (check(TokenKind::AmpAmp)) {
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseEquality();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(BinaryOp::LAnd, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseEquality() {
  Expr *LHS = parseRelational();
  while (check(TokenKind::EqEq) || check(TokenKind::BangEq)) {
    BinaryOp Op = check(TokenKind::EqEq) ? BinaryOp::Eq : BinaryOp::Ne;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseRelational();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseRelational() {
  Expr *LHS = parseAdditive();
  while (check(TokenKind::Less) || check(TokenKind::LessEq) ||
         check(TokenKind::Greater) || check(TokenKind::GreaterEq)) {
    BinaryOp Op;
    if (check(TokenKind::Less))
      Op = BinaryOp::Lt;
    else if (check(TokenKind::LessEq))
      Op = BinaryOp::Le;
    else if (check(TokenKind::Greater))
      Op = BinaryOp::Gt;
    else
      Op = BinaryOp::Ge;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseAdditive();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseAdditive() {
  Expr *LHS = parseMultiplicative();
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    BinaryOp Op = check(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseMultiplicative();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseMultiplicative() {
  Expr *LHS = parseUnary();
  while (check(TokenKind::Star) || check(TokenKind::Slash) ||
         check(TokenKind::Percent)) {
    BinaryOp Op;
    if (check(TokenKind::Star))
      Op = BinaryOp::Mul;
    else if (check(TokenKind::Slash))
      Op = BinaryOp::Div;
    else
      Op = BinaryOp::Rem;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseUnary();
    LHS = Prog->Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseUnary() {
  // Unary operators and casts recurse directly into parseUnary without
  // passing through parseExpr, so a `-----...` tower needs its own guard.
  if (!checkDepth())
    return makeErrorExpr(peek().Loc);
  DepthScope Scope(Depth);
  SourceLoc Loc = peek().Loc;
  if (match(TokenKind::Minus)) {
    Expr *Sub = parseUnary();
    // Fold negative integer literals into constants (as CIL does), so
    // Const-classifier patterns match them.
    if (auto *IC = dyn_cast<IntConstExpr>(Sub))
      return Prog->Ctx.createExpr<IntConstExpr>(-IC->Value, Loc);
    return Prog->Ctx.createExpr<UnaryExpr>(UnaryOp::Neg, Sub, Loc);
  }
  if (match(TokenKind::Bang)) {
    Expr *Sub = parseUnary();
    return Prog->Ctx.createExpr<UnaryExpr>(UnaryOp::Not, Sub, Loc);
  }
  if (match(TokenKind::Tilde)) {
    Expr *Sub = parseUnary();
    return Prog->Ctx.createExpr<UnaryExpr>(UnaryOp::BitNot, Sub, Loc);
  }
  if (match(TokenKind::Star)) {
    Expr *Sub = parseUnary();
    LValue *LV = Prog->Ctx.createLValue(Sub, Loc);
    return Prog->Ctx.createExpr<LValReadExpr>(LV, Loc);
  }
  if (match(TokenKind::Amp)) {
    Expr *Sub = parseUnary();
    LValue *LV = requireLValue(Sub, "after '&'");
    if (!LV)
      return makeErrorExpr(Loc);
    return Prog->Ctx.createExpr<AddrOfExpr>(LV, Loc);
  }
  // Cast: '(' type ')' unary.
  if (check(TokenKind::LParen) && peek(1).is(TokenKind::Identifier) &&
      (peek(1).isIdent("void") || peek(1).isIdent("int") ||
       peek(1).isIdent("char") || peek(1).isIdent("struct"))) {
    advance(); // '('
    TypePtr Target = parseType();
    expect(TokenKind::RParen, "to close cast");
    Expr *Sub = parseUnary();
    if (!Target)
      return Sub;
    return Prog->Ctx.createExpr<CastExpr>(Target, Sub, Loc);
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (true) {
    SourceLoc Loc = peek().Loc;
    if (match(TokenKind::LBracket)) {
      // a[i] desugars to *(a + i); the logical memory model means the
      // element type equals the pointer's pointee type.
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "to close index");
      Expr *Addr =
          Prog->Ctx.createExpr<BinaryExpr>(BinaryOp::Add, E, Index, Loc);
      LValue *LV = Prog->Ctx.createLValue(Addr, Loc);
      E = Prog->Ctx.createExpr<LValReadExpr>(LV, Loc);
      continue;
    }
    if (match(TokenKind::Dot)) {
      if (!check(TokenKind::Identifier)) {
        error("expected field name after '.'");
        return E;
      }
      std::string_view Field = advance().Text;
      LValue *LV = requireLValue(E, "before '.'");
      if (!LV)
        return makeErrorExpr(Loc);
      appendField(LV, Field);
      // Reuse the same read expression; its type is recomputed by Sema.
      continue;
    }
    if (match(TokenKind::Arrow)) {
      if (!check(TokenKind::Identifier)) {
        error("expected field name after '->'");
        return E;
      }
      std::string_view Field = advance().Text;
      LValue *LV = Prog->Ctx.createLValue(E, Loc);
      appendField(LV, Field);
      E = Prog->Ctx.createExpr<LValReadExpr>(LV, Loc);
      continue;
    }
    break;
  }
  return E;
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokenKind::IntLiteral)) {
    int64_t V = advance().IntValue;
    return Prog->Ctx.createExpr<IntConstExpr>(V, Loc);
  }
  if (check(TokenKind::CharLiteral)) {
    int64_t V = advance().IntValue;
    return Prog->Ctx.createExpr<IntConstExpr>(V, Loc);
  }
  if (check(TokenKind::StringLiteral)) {
    std::string_view S = Prog->Ctx.copyString(advance().Text);
    return Prog->Ctx.createExpr<StrConstExpr>(S, Loc);
  }
  if (checkIdent("NULL")) {
    advance();
    return Prog->Ctx.createExpr<NullConstExpr>(Loc);
  }
  if (checkIdent("sizeof")) {
    advance();
    expect(TokenKind::LParen, "after 'sizeof'");
    TypePtr Target = parseType();
    expect(TokenKind::RParen, "to close sizeof");
    if (!Target)
      return makeErrorExpr(Loc);
    return Prog->Ctx.createExpr<SizeofTypeExpr>(Target, Loc);
  }
  if (check(TokenKind::Identifier)) {
    const std::string &Name = advance().Text;
    if (check(TokenKind::LParen)) {
      advance();
      size_t Base = ArgScratch.size();
      if (!check(TokenKind::RParen)) {
        do {
          Expr *Arg = parseExpr();
          ArgScratch.push_back(Arg);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      std::span<Expr *> Args = Prog->Ctx.copyArray<Expr *>(
          std::span(ArgScratch).subspan(Base));
      ArgScratch.resize(Base);
      return Prog->Ctx.createExpr<CallExpr>(Prog->Ctx.copyString(Name), Args,
                                            Loc);
    }
    VarDecl *Var = lookupVar(Name);
    if (!Var) {
      error("use of undeclared identifier '" + Name + "'");
      return makeErrorExpr(Loc);
    }
    LValue *LV = Prog->Ctx.createLValue(Var, Loc);
    return Prog->Ctx.createExpr<LValReadExpr>(LV, Loc);
  }
  if (match(TokenKind::LParen)) {
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return E;
  }
  error("expected expression, found " +
        std::string(tokenKindName(peek().Kind)));
  advance();
  return makeErrorExpr(Loc);
}
