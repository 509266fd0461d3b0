//===- Lowering.cpp -------------------------------------------------------===//

#include "cminus/Lowering.h"

#include "support/Trace.h"

#include <cassert>
#include <string>
#include <vector>

using namespace stq;
using namespace stq::cminus;

CallExpr *stq::cminus::getDirectCall(Expr *E) {
  if (auto *Call = dyn_cast<CallExpr>(E))
    return Call;
  if (auto *Cast_ = dyn_cast<CastExpr>(E))
    return dyn_cast<CallExpr>(Cast_->Sub);
  return nullptr;
}

const CallExpr *stq::cminus::getDirectCall(const Expr *E) {
  return getDirectCall(const_cast<Expr *>(E));
}

namespace {

class Lowerer {
public:
  Lowerer(Program &Prog, DiagnosticEngine &Diags) : Prog(Prog), Diags(Diags) {}

  bool run();

private:
  void error(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, "lower", Message);
  }

  void lowerBlock(BlockStmt *Block);
  /// Lowers one statement; hoisted temporaries are appended to \p Pre.
  void lowerStmt(Stmt *S, std::vector<Stmt *> &Pre);

  /// Rewrites \p E so it contains no calls, hoisting any into temporaries
  /// declared in \p Pre. \p AllowCalls permits \p E itself (not subexprs)
  /// to be a direct call.
  Expr *flatten(Expr *E, std::vector<Stmt *> &Pre, bool AllowDirectCall);
  void flattenLValue(LValue *LV, std::vector<Stmt *> &Pre);
  /// Hoists \p Call into a fresh temp; returns a read of the temp.
  Expr *hoistCall(CallExpr *Call, std::vector<Stmt *> &Pre);
  /// Reports an error for any call contained in \p E (used where hoisting
  /// would change semantics, e.g. loop conditions).
  void forbidCalls(Expr *E, const char *Where);
  void forbidCallsLValue(LValue *LV, const char *Where);

  /// Wraps \p S in a block containing \p Pre followed by \p S, or returns
  /// \p S unchanged when no hoisting occurred.
  Stmt *wrapWithPre(Stmt *S, const std::vector<Stmt *> &Pre) {
    if (Pre.empty())
      return S;
    auto *Block = Prog.Ctx.createStmt<BlockStmt>(S->Loc);
    std::vector<Stmt *> Stmts = Pre;
    Stmts.push_back(S);
    Block->Stmts = Prog.Ctx.copyArray<Stmt *>(Stmts);
    return Block;
  }

  Program &Prog;
  DiagnosticEngine &Diags;
  unsigned NextTemp = 0;
  /// Statement lists being rebuilt, innermost block on top.
  std::vector<Stmt *> StmtScratch;
};

} // namespace

bool Lowerer::run() {
  unsigned ErrorsBefore = Diags.errorCount();
  for (VarDecl *G : Prog.Globals)
    if (G->Init)
      forbidCalls(G->Init, "global initializer");
  for (FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      lowerBlock(Fn->Body);
  return Diags.errorCount() == ErrorsBefore;
}

void Lowerer::lowerBlock(BlockStmt *Block) {
  size_t Base = StmtScratch.size();
  bool Hoisted = false;
  for (Stmt *S : Block->Stmts) {
    std::vector<Stmt *> Pre;
    lowerStmt(S, Pre);
    Hoisted = Hoisted || !Pre.empty();
    StmtScratch.insert(StmtScratch.end(), Pre.begin(), Pre.end());
    StmtScratch.push_back(S);
  }
  if (Hoisted)
    Block->Stmts = Prog.Ctx.copyArray<Stmt *>(
        std::span(StmtScratch).subspan(Base));
  StmtScratch.resize(Base);
}

void Lowerer::lowerStmt(Stmt *S, std::vector<Stmt *> &Pre) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    lowerBlock(cast<BlockStmt>(S));
    return;
  case Stmt::Kind::Decl: {
    VarDecl *Var = cast<DeclStmt>(S)->Var;
    if (Var->Init)
      Var->Init = flatten(Var->Init, Pre, /*AllowDirectCall=*/true);
    return;
  }
  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    flattenLValue(Assign->LHS, Pre);
    Assign->RHS = flatten(Assign->RHS, Pre, /*AllowDirectCall=*/true);
    return;
  }
  case Stmt::Kind::CallStmt: {
    auto *CS = cast<CallStmt>(S);
    for (Expr *&Arg : CS->Call->Args)
      Arg = flatten(Arg, Pre, /*AllowDirectCall=*/false);
    return;
  }
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    If->Cond = flatten(If->Cond, Pre, /*AllowDirectCall=*/false);
    if (If->Then) {
      std::vector<Stmt *> ThenPre;
      lowerStmt(If->Then, ThenPre);
      If->Then = wrapWithPre(If->Then, ThenPre);
    }
    if (If->Else) {
      std::vector<Stmt *> ElsePre;
      lowerStmt(If->Else, ElsePre);
      If->Else = wrapWithPre(If->Else, ElsePre);
    }
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    forbidCalls(While->Cond, "loop condition");
    std::vector<Stmt *> BodyPre;
    lowerStmt(While->Body, BodyPre);
    While->Body = wrapWithPre(While->Body, BodyPre);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    if (For->Init)
      lowerStmt(For->Init, Pre);
    if (For->Cond)
      forbidCalls(For->Cond, "loop condition");
    if (For->Step) {
      std::vector<Stmt *> StepPre;
      lowerStmt(For->Step, StepPre);
      if (!StepPre.empty())
        error(For->Step->Loc, "calls are not permitted inside a for-step");
    }
    std::vector<Stmt *> BodyPre;
    lowerStmt(For->Body, BodyPre);
    For->Body = wrapWithPre(For->Body, BodyPre);
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (Ret->Value)
      Ret->Value = flatten(Ret->Value, Pre, /*AllowDirectCall=*/false);
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

Expr *Lowerer::flatten(Expr *E, std::vector<Stmt *> &Pre,
                       bool AllowDirectCall) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    return E;
  case Expr::Kind::LValRead:
    flattenLValue(cast<LValReadExpr>(E)->LV, Pre);
    return E;
  case Expr::Kind::AddrOf:
    flattenLValue(cast<AddrOfExpr>(E)->LV, Pre);
    return E;
  case Expr::Kind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    Un->Sub = flatten(Un->Sub, Pre, /*AllowDirectCall=*/false);
    return E;
  }
  case Expr::Kind::Binary: {
    auto *Bin = cast<BinaryExpr>(E);
    if (Bin->Op == BinaryOp::LAnd || Bin->Op == BinaryOp::LOr) {
      // Hoisting out of a short-circuit operand would change semantics.
      forbidCalls(Bin->LHS, "short-circuit operand");
      forbidCalls(Bin->RHS, "short-circuit operand");
      return E;
    }
    Bin->LHS = flatten(Bin->LHS, Pre, /*AllowDirectCall=*/false);
    Bin->RHS = flatten(Bin->RHS, Pre, /*AllowDirectCall=*/false);
    return E;
  }
  case Expr::Kind::Cast: {
    auto *Cast_ = cast<CastExpr>(E);
    // A cast directly around a call keeps the call in direct position (the
    // paper ignores such casts for pattern matching).
    bool SubIsCall = isa<CallExpr>(Cast_->Sub);
    Cast_->Sub = flatten(Cast_->Sub, Pre, AllowDirectCall && SubIsCall);
    return E;
  }
  case Expr::Kind::Call: {
    auto *Call = cast<CallExpr>(E);
    for (Expr *&Arg : Call->Args)
      Arg = flatten(Arg, Pre, /*AllowDirectCall=*/false);
    if (AllowDirectCall)
      return E;
    return hoistCall(Call, Pre);
  }
  }
  return E;
}

void Lowerer::flattenLValue(LValue *LV, std::vector<Stmt *> &Pre) {
  if (!LV->isMem())
    return;
  LV->Addr = flatten(LV->Addr, Pre, /*AllowDirectCall=*/false);
  // CIL's *&lv simplification: a dereference of an address-of collapses to
  // the inner l-value (with field paths concatenated). Without this, *&p
  // would launder disallow-read qualifiers.
  while (LV->isMem()) {
    auto *Addr = dyn_cast<AddrOfExpr>(LV->Addr);
    if (!Addr)
      break;
    LValue *Inner = Addr->LV;
    std::span<std::string_view> ExtraFields = LV->Fields;
    std::vector<std::string_view> Fields(Inner->Fields.begin(),
                                         Inner->Fields.end());
    Fields.insert(Fields.end(), ExtraFields.begin(), ExtraFields.end());
    // Sema ran before lowering; recompute the collapsed l-value's type
    // from the inner l-value's (which covers Inner->Fields already).
    TypePtr Ty = Inner->Ty;
    for (std::string_view Field : ExtraFields) {
      if (!Ty)
        break;
      TypePtr Bare = Type::withoutQuals(Ty);
      const StructDef *Def =
          Bare->isStruct() ? Prog.findStruct(Bare->structName()) : nullptr;
      const StructDef::Field *F = Def ? Def->findField(Field) : nullptr;
      Ty = F ? F->Ty : nullptr;
    }
    LV->K = Inner->K;
    LV->Var = Inner->Var;
    LV->Addr = Inner->Addr;
    LV->Fields = Prog.Ctx.copyArray<std::string_view>(Fields);
    LV->Ty = Ty;
  }
}

Expr *Lowerer::hoistCall(CallExpr *Call, std::vector<Stmt *> &Pre) {
  TypePtr Ty = Call->Ty ? Call->Ty : Prog.types().getInt();
  if (Ty->isVoid()) {
    error(Call->Loc, "void call used as a value");
    Ty = Prog.types().getInt();
  }
  std::string Name = "__cil_tmp" + std::to_string(NextTemp++);
  VarDecl *Temp = Prog.Ctx.createVar(Name, Ty, Call->Loc);
  Temp->Init = Call;
  Pre.push_back(Prog.Ctx.createStmt<DeclStmt>(Temp, Call->Loc));
  LValue *LV = Prog.Ctx.createLValue(Temp, Call->Loc);
  LV->Ty = Ty;
  auto *Read = Prog.Ctx.createExpr<LValReadExpr>(LV, Call->Loc);
  Read->Ty = Ty;
  return Read;
}

void Lowerer::forbidCalls(Expr *E, const char *Where) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    return;
  case Expr::Kind::LValRead:
    forbidCallsLValue(cast<LValReadExpr>(E)->LV, Where);
    return;
  case Expr::Kind::AddrOf:
    forbidCallsLValue(cast<AddrOfExpr>(E)->LV, Where);
    return;
  case Expr::Kind::Unary:
    forbidCalls(cast<UnaryExpr>(E)->Sub, Where);
    return;
  case Expr::Kind::Binary:
    forbidCalls(cast<BinaryExpr>(E)->LHS, Where);
    forbidCalls(cast<BinaryExpr>(E)->RHS, Where);
    return;
  case Expr::Kind::Cast:
    forbidCalls(cast<CastExpr>(E)->Sub, Where);
    return;
  case Expr::Kind::Call:
    error(E->Loc, std::string("calls are not permitted inside a ") + Where);
    return;
  }
}

void Lowerer::forbidCallsLValue(LValue *LV, const char *Where) {
  if (LV->isMem())
    forbidCalls(LV->Addr, Where);
}

bool stq::cminus::lowerProgram(Program &Prog, DiagnosticEngine &Diags) {
  trace::Span Span("lower");
  Lowerer L(Prog, Diags);
  return L.run();
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

namespace {

class Verifier {
public:
  Verifier(const Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  bool run();

private:
  void fail(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, "verify", Message);
  }

  void verifyStmt(const Stmt *S);
  /// Verifies a pure (call-free) expression.
  void verifyPure(const Expr *E);
  void verifyLValue(const LValue *LV);
  void verifyCallArgs(const CallExpr *Call);
  /// Verifies a direct-instruction RHS: either pure, or a call (possibly
  /// under one cast) with pure arguments.
  void verifyRHS(const Expr *E);

  const Program &Prog;
  DiagnosticEngine &Diags;
};

} // namespace

bool Verifier::run() {
  unsigned ErrorsBefore = Diags.errorCount();
  for (const VarDecl *G : Prog.Globals)
    if (G->Init)
      verifyPure(G->Init);
  for (const FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      verifyStmt(Fn->Body);
  return Diags.errorCount() == ErrorsBefore;
}

void Verifier::verifyStmt(const Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      verifyStmt(Sub);
    return;
  case Stmt::Kind::Decl:
    if (const Expr *Init = cast<DeclStmt>(S)->Var->Init)
      verifyRHS(Init);
    return;
  case Stmt::Kind::Assign:
    verifyLValue(cast<AssignStmt>(S)->LHS);
    verifyRHS(cast<AssignStmt>(S)->RHS);
    return;
  case Stmt::Kind::CallStmt:
    verifyCallArgs(cast<CallStmt>(S)->Call);
    return;
  case Stmt::Kind::If:
    verifyPure(cast<IfStmt>(S)->Cond);
    verifyStmt(cast<IfStmt>(S)->Then);
    verifyStmt(cast<IfStmt>(S)->Else);
    return;
  case Stmt::Kind::While:
    verifyPure(cast<WhileStmt>(S)->Cond);
    verifyStmt(cast<WhileStmt>(S)->Body);
    return;
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    verifyStmt(For->Init);
    if (For->Cond)
      verifyPure(For->Cond);
    verifyStmt(For->Step);
    verifyStmt(For->Body);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->Value)
      verifyPure(V);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void Verifier::verifyRHS(const Expr *E) {
  if (const CallExpr *Call = getDirectCall(E)) {
    verifyCallArgs(Call);
    return;
  }
  verifyPure(E);
}

void Verifier::verifyCallArgs(const CallExpr *Call) {
  for (const Expr *Arg : Call->Args)
    verifyPure(Arg);
}

void Verifier::verifyPure(const Expr *E) {
  if (!E->Ty)
    fail(E->Loc, "expression without a computed type");
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    return;
  case Expr::Kind::LValRead:
    verifyLValue(cast<LValReadExpr>(E)->LV);
    return;
  case Expr::Kind::AddrOf:
    verifyLValue(cast<AddrOfExpr>(E)->LV);
    return;
  case Expr::Kind::Unary:
    verifyPure(cast<UnaryExpr>(E)->Sub);
    return;
  case Expr::Kind::Binary:
    verifyPure(cast<BinaryExpr>(E)->LHS);
    verifyPure(cast<BinaryExpr>(E)->RHS);
    return;
  case Expr::Kind::Cast:
    verifyPure(cast<CastExpr>(E)->Sub);
    return;
  case Expr::Kind::Call:
    fail(E->Loc, "call in a pure-expression position after lowering");
    return;
  }
}

void Verifier::verifyLValue(const LValue *LV) {
  if (!LV->Ty)
    fail(LV->Loc, "l-value without a computed type");
  if (LV->isMem())
    verifyPure(LV->Addr);
}

bool stq::cminus::verifyLoweredProgram(const Program &Prog,
                                       DiagnosticEngine &Diags) {
  Verifier V(Prog, Diags);
  return V.run();
}
