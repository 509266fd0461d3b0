//===- ConstraintGraph.cpp ------------------------------------------------===//

#include "checker/ConstraintGraph.h"

#include "cminus/Lowering.h"

#include <cassert>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;

//===----------------------------------------------------------------------===//
// Unit-sharded flow collection
//===----------------------------------------------------------------------===//

namespace {

/// Collects flow edges and the variable roster for one unit.
class UnitCollector {
public:
  explicit UnitCollector(UnitFlows &Out) : Out(Out) {}

  void walkExpr(const Expr *E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::Call:
      walkCall(cast<CallExpr>(E));
      return;
    case Expr::Kind::Unary:
      walkExpr(cast<UnaryExpr>(E)->Sub);
      return;
    case Expr::Kind::Binary:
      walkExpr(cast<BinaryExpr>(E)->LHS);
      walkExpr(cast<BinaryExpr>(E)->RHS);
      return;
    case Expr::Kind::Cast:
      walkExpr(cast<CastExpr>(E)->Sub);
      return;
    case Expr::Kind::LValRead:
      if (cast<LValReadExpr>(E)->LV->isMem())
        walkExpr(cast<LValReadExpr>(E)->LV->Addr);
      return;
    case Expr::Kind::AddrOf: {
      const LValue *LV = cast<AddrOfExpr>(E)->LV;
      if (LV->isVar())
        Out.AddrTaken.push_back(LV->Var);
      else
        walkExpr(LV->Addr);
      return;
    }
    default:
      return;
    }
  }

  void walkCall(const CallExpr *Call) {
    for (const Expr *Arg : Call->Args)
      walkExpr(Arg);
    if (!Call->Callee)
      return;
    for (size_t I = 0;
         I < Call->Args.size() && I < Call->Callee->Params.size(); ++I)
      Out.Edges.push_back({Call->Callee->Params[I], Call->Args[I]});
  }

  void walkStmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
        walkStmt(Sub);
      return;
    case Stmt::Kind::Decl: {
      const VarDecl *Var = cast<DeclStmt>(S)->Var;
      Out.Vars.push_back(Var);
      if (Var->Init) {
        Out.Edges.push_back({Var, Var->Init});
        walkExpr(Var->Init);
      }
      return;
    }
    case Stmt::Kind::Assign: {
      const auto *Assign = cast<AssignStmt>(S);
      if (Assign->LHS->isBareVar())
        Out.Edges.push_back({Assign->LHS->Var, Assign->RHS});
      else if (Assign->LHS->isMem())
        walkExpr(Assign->LHS->Addr);
      walkExpr(Assign->RHS);
      return;
    }
    case Stmt::Kind::CallStmt:
      walkCall(cast<CallStmt>(S)->Call);
      return;
    case Stmt::Kind::If:
      walkExpr(cast<IfStmt>(S)->Cond);
      walkStmt(cast<IfStmt>(S)->Then);
      walkStmt(cast<IfStmt>(S)->Else);
      return;
    case Stmt::Kind::While:
      walkExpr(cast<WhileStmt>(S)->Cond);
      walkStmt(cast<WhileStmt>(S)->Body);
      return;
    case Stmt::Kind::For: {
      const auto *For = cast<ForStmt>(S);
      walkStmt(For->Init);
      if (For->Cond)
        walkExpr(For->Cond);
      walkStmt(For->Step);
      walkStmt(For->Body);
      return;
    }
    case Stmt::Kind::Return:
      walkExpr(cast<ReturnStmt>(S)->Value);
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return;
    }
  }

private:
  UnitFlows &Out;
};

/// Appends every variable whose address is taken inside \p E (used for
/// global initializers, whose nested expressions are otherwise not
/// walked).
void scanAddrTaken(const Expr *E, std::vector<const VarDecl *> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::AddrOf: {
    const LValue *LV = cast<AddrOfExpr>(E)->LV;
    if (LV->isVar())
      Out.push_back(LV->Var);
    else
      scanAddrTaken(LV->Addr, Out);
    return;
  }
  case Expr::Kind::LValRead:
    if (cast<LValReadExpr>(E)->LV->isMem())
      scanAddrTaken(cast<LValReadExpr>(E)->LV->Addr, Out);
    return;
  case Expr::Kind::Unary:
    scanAddrTaken(cast<UnaryExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Binary:
    scanAddrTaken(cast<BinaryExpr>(E)->LHS, Out);
    scanAddrTaken(cast<BinaryExpr>(E)->RHS, Out);
    return;
  case Expr::Kind::Cast:
    scanAddrTaken(cast<CastExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Call:
    for (const Expr *Arg : cast<CallExpr>(E)->Args)
      scanAddrTaken(Arg, Out);
    return;
  default:
    return;
  }
}

} // namespace

unsigned stq::checker::flowUnitCount(const Program &Prog) {
  return 1 + static_cast<unsigned>(Prog.Functions.size());
}

void stq::checker::collectUnitFlows(const Program &Prog, unsigned Unit,
                                    UnitFlows &Out) {
  if (Unit == 0) {
    // Global initializers contribute their direct edge only (no nested
    // call-argument edges), matching the sequential reference collector.
    for (const VarDecl *G : Prog.Globals) {
      Out.Vars.push_back(G);
      if (G->Init) {
        Out.Edges.push_back({G, G->Init});
        scanAddrTaken(G->Init, Out.AddrTaken);
      }
    }
    return;
  }
  assert(Unit - 1 < Prog.Functions.size() && "unit out of range");
  const FuncDecl *Fn = Prog.Functions[Unit - 1];
  for (const VarDecl *P : Fn->Params)
    Out.Vars.push_back(P);
  if (Fn->isDefinition()) {
    UnitCollector C(Out);
    C.walkStmt(Fn->Body);
  }
}

UnitFlows stq::checker::collectAllFlows(const Program &Prog) {
  UnitFlows All;
  for (unsigned U = 0, N = flowUnitCount(Prog); U < N; ++U) {
    UnitFlows Unit;
    collectUnitFlows(Prog, U, Unit);
    All.Edges.insert(All.Edges.end(), Unit.Edges.begin(), Unit.Edges.end());
    All.Vars.insert(All.Vars.end(), Unit.Vars.begin(), Unit.Vars.end());
    All.AddrTaken.insert(All.AddrTaken.end(), Unit.AddrTaken.begin(),
                         Unit.AddrTaken.end());
  }
  return All;
}

void stq::checker::collectReadVars(const Expr *E,
                                   std::vector<const VarDecl *> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::LValRead: {
    const LValue *LV = cast<LValReadExpr>(E)->LV;
    if (LV->isVar())
      Out.push_back(LV->Var);
    else
      collectReadVars(LV->Addr, Out);
    return;
  }
  case Expr::Kind::AddrOf: {
    const LValue *LV = cast<AddrOfExpr>(E)->LV;
    if (LV->isVar())
      Out.push_back(LV->Var);
    else
      collectReadVars(LV->Addr, Out);
    return;
  }
  case Expr::Kind::Unary:
    collectReadVars(cast<UnaryExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Binary:
    collectReadVars(cast<BinaryExpr>(E)->LHS, Out);
    collectReadVars(cast<BinaryExpr>(E)->RHS, Out);
    return;
  case Expr::Kind::Cast:
    collectReadVars(cast<CastExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Call:
    for (const Expr *Arg : cast<CallExpr>(E)->Args)
      collectReadVars(Arg, Out);
    return;
  default:
    return;
  }
}
