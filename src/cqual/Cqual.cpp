//===- Cqual.cpp ----------------------------------------------------------===//

#include "cqual/Cqual.h"

#include "cminus/Lowering.h"
#include "cminus/Printer.h"

#include <cassert>
#include <map>
#include <queue>

using namespace stq;
using namespace stq::cqual;
using namespace stq::cminus;

namespace {

using QVar = unsigned;

/// The qualifier shape of a value: one variable per pointer level
/// (index 0 = the value itself, index 1 = what it points to, ...).
using QShape = std::vector<QVar>;

class CqualEngine {
public:
  CqualEngine(const Program &Prog, const LatticeConfig &Config)
      : Prog(Prog), Config(Config) {}

  InferenceResult run();

private:
  QVar freshVar() {
    LowerTaint.push_back(false);
    UpperBottom.push_back(false);
    Succ.emplace_back();
    VarLoc.push_back(SourceLoc());
    VarDesc.emplace_back();
    return static_cast<QVar>(LowerTaint.size() - 1);
  }

  /// a <= b.
  void addEdge(QVar A, QVar B) {
    Succ[A].push_back(B);
    ++Result.NumConstraints;
  }
  void addEq(QVar A, QVar B) {
    addEdge(A, B);
    addEdge(B, A);
  }
  void constrainShapes(const QShape &Src, const QShape &Dst, SourceLoc Loc);

  unsigned pointerDepth(const TypePtr &Ty) {
    TypePtr Bare = Type::withoutQuals(Ty);
    return Bare->isPointer() ? 1 + pointerDepth(Bare->pointee()) : 0;
  }

  /// The qualifier shape for a declared type, reading explicit Top/Bottom
  /// annotations at each level.
  QShape shapeForType(const TypePtr &Ty, SourceLoc Loc,
                      const std::string &Desc);
  QShape shapeForVar(const VarDecl *Var);
  QShape shapeForField(const StructDef *Def, const std::string &Field);
  QShape shapeForReturn(const FuncDecl *Fn);
  QShape freshShape(unsigned Levels, SourceLoc Loc, const std::string &Desc);

  QShape shapeOfExpr(const Expr *E);
  QShape shapeOfLValue(const LValue *LV);
  QShape shapeOfCall(const CallExpr *Call);

  void walkStmt(const Stmt *S, const FuncDecl *Fn);
  void assignInto(const QShape &Dst, const Expr *RHS, SourceLoc Loc);

  void solve();

  const Program &Prog;
  const LatticeConfig &Config;
  InferenceResult Result;

  // Constraint graph.
  std::vector<bool> LowerTaint;  ///< Var's lower bound is Top.
  std::vector<bool> UpperBottom; ///< Var's upper bound is Bottom.
  std::vector<std::vector<QVar>> Succ;
  std::vector<SourceLoc> VarLoc;
  std::vector<std::string> VarDesc;

  std::map<const VarDecl *, QShape> VarShapes;
  std::map<std::pair<const StructDef *, std::string>, QShape> FieldShapes;
  std::map<const FuncDecl *, QShape> ReturnShapes;
};

QShape CqualEngine::freshShape(unsigned Levels, SourceLoc Loc,
                               const std::string &Desc) {
  QShape Out;
  for (unsigned I = 0; I <= Levels; ++I) {
    QVar V = freshVar();
    VarLoc[V] = Loc;
    VarDesc[V] = Desc;
    Out.push_back(V);
  }
  return Out;
}

QShape CqualEngine::shapeForType(const TypePtr &Ty, SourceLoc Loc,
                                 const std::string &Desc) {
  QShape Out;
  TypePtr Cur = Ty;
  while (true) {
    QVar V = freshVar();
    VarLoc[V] = Loc;
    VarDesc[V] = Desc;
    if (Cur->hasQual(Config.Top)) {
      LowerTaint[V] = true;
      ++Result.ExplicitAnnotations;
    }
    if (Cur->hasQual(Config.Bottom)) {
      UpperBottom[V] = true;
      ++Result.ExplicitAnnotations;
    }
    Out.push_back(V);
    TypePtr Bare = Type::withoutQuals(Cur);
    if (!Bare->isPointer())
      break;
    Cur = Bare->pointee();
  }
  return Out;
}

QShape CqualEngine::shapeForVar(const VarDecl *Var) {
  auto Found = VarShapes.find(Var);
  if (Found != VarShapes.end())
    return Found->second;
  QShape S = shapeForType(Var->DeclaredTy, Var->Loc, "var " + std::string(Var->Name));
  VarShapes.emplace(Var, S);
  return S;
}

QShape CqualEngine::shapeForField(const StructDef *Def,
                                  const std::string &Field) {
  auto Key = std::make_pair(Def, Field);
  auto Found = FieldShapes.find(Key);
  if (Found != FieldShapes.end())
    return Found->second;
  const StructDef::Field *F = Def->findField(Field);
  QShape S = F ? shapeForType(F->Ty, Def->Loc, std::string(Def->Name) + "." + Field)
               : freshShape(0, Def->Loc, "unknown field");
  FieldShapes.emplace(Key, S);
  return S;
}

QShape CqualEngine::shapeForReturn(const FuncDecl *Fn) {
  auto Found = ReturnShapes.find(Fn);
  if (Found != ReturnShapes.end())
    return Found->second;
  QShape S = shapeForType(Fn->RetTy, Fn->Loc, "return of " + std::string(Fn->Name));
  ReturnShapes.emplace(Fn, S);
  return S;
}

void CqualEngine::constrainShapes(const QShape &Src, const QShape &Dst,
                                  SourceLoc Loc) {
  (void)Loc;
  if (Src.empty() || Dst.empty())
    return;
  // Top level: subtyping. Below pointers: equality (no subtyping under
  // pointers).
  addEdge(Src[0], Dst[0]);
  for (size_t I = 1; I < Src.size() && I < Dst.size(); ++I)
    addEq(Src[I], Dst[I]);
}

QShape CqualEngine::shapeOfLValue(const LValue *LV) {
  QShape Base;
  if (LV->isVar()) {
    Base = shapeForVar(LV->Var);
  } else {
    QShape Addr = shapeOfExpr(LV->Addr);
    // Dereference drops the outermost level.
    if (Addr.size() > 1)
      Base.assign(Addr.begin() + 1, Addr.end());
    else
      Base = freshShape(0, LV->Loc, "deref");
  }
  // Field path: field-based (flow-insensitive) shapes.
  TypePtr CurTy = LV->isVar() ? LV->Var->DeclaredTy
                              : (LV->Addr->Ty && LV->Addr->Ty->isPointer()
                                     ? LV->Addr->Ty->pointee()
                                     : nullptr);
  for (std::string_view FieldName : LV->Fields) {
    std::string Field(FieldName);
    if (!CurTy)
      return freshShape(0, LV->Loc, "field");
    TypePtr Bare = Type::withoutQuals(CurTy);
    const StructDef *Def =
        Bare->isStruct() ? Prog.findStruct(Bare->structName()) : nullptr;
    if (!Def)
      return freshShape(0, LV->Loc, "field");
    Base = shapeForField(Def, Field);
    const StructDef::Field *F = Def->findField(Field);
    CurTy = F ? F->Ty : nullptr;
  }
  return Base;
}

QShape CqualEngine::shapeOfCall(const CallExpr *Call) {
  // Arguments flow into parameters.
  if (Call->Callee) {
    for (size_t I = 0;
         I < Call->Args.size() && I < Call->Callee->Params.size(); ++I) {
      QShape Arg = shapeOfExpr(Call->Args[I]);
      QShape Param = shapeForVar(Call->Callee->Params[I]);
      constrainShapes(Arg, Param, Call->Args[I]->Loc);
    }
    return shapeForReturn(Call->Callee);
  }
  for (const Expr *Arg : Call->Args)
    shapeOfExpr(Arg);
  unsigned Levels = Call->Ty ? pointerDepth(Call->Ty) : 0;
  return freshShape(Levels, Call->Loc, "call " + std::string(Call->CalleeName));
}

QShape CqualEngine::shapeOfExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
    // Constants carry no taint: their lower bound stays free, so they may
    // flow anywhere (the standard prelude treatment in taint analyses).
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    return freshShape(E->Ty ? pointerDepth(E->Ty) : 0, E->Loc, "constant");
  case Expr::Kind::LValRead:
    return shapeOfLValue(cast<LValReadExpr>(E)->LV);
  case Expr::Kind::AddrOf: {
    QShape Sub = shapeOfLValue(cast<AddrOfExpr>(E)->LV);
    QShape Out = freshShape(0, E->Loc, "addrof");
    Out.insert(Out.end(), Sub.begin(), Sub.end());
    return Out;
  }
  case Expr::Kind::Unary:
    return shapeOfExpr(cast<UnaryExpr>(E)->Sub);
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    QShape L = shapeOfExpr(Bin->LHS);
    QShape R = shapeOfExpr(Bin->RHS);
    // Pointer arithmetic keeps the pointer's shape; otherwise join into a
    // fresh variable.
    if (Bin->LHS->Ty && Bin->LHS->Ty->isPointer())
      return L;
    if (Bin->RHS->Ty && Bin->RHS->Ty->isPointer())
      return R;
    QShape Out = freshShape(0, E->Loc, "binop");
    if (!L.empty())
      addEdge(L[0], Out[0]);
    if (!R.empty())
      addEdge(R[0], Out[0]);
    return Out;
  }
  case Expr::Kind::Cast: {
    const auto *Cast_ = cast<CastExpr>(E);
    QShape Sub = shapeOfExpr(Cast_->Sub);
    // A cast with an explicit qualifier annotation is a CQUAL
    // assertion/assumption boundary: the incoming value is checked against
    // the annotation, but the annotation is then trusted, so taint does
    // not propagate through. Unannotated levels are transparent.
    QShape Out;
    TypePtr Cur = Cast_->Target;
    for (size_t Level = 0;; ++Level) {
      bool Annotated = Cur->hasQual(Config.Top) || Cur->hasQual(Config.Bottom);
      if (Annotated) {
        // Check var carries the annotation's bounds.
        QShape CheckShape = shapeForType(Cur, E->Loc, "cast");
        QVar Check = CheckShape[0];
        if (Level < Sub.size())
          addEdge(Sub[Level], Check);
        // Downstream sees the trusted annotation: taint sources (Top
        // annotations) still propagate, Bottom annotations block.
        QVar Fresh = freshVar();
        VarLoc[Fresh] = E->Loc;
        VarDesc[Fresh] = "cast result";
        LowerTaint[Fresh] = Cur->hasQual(Config.Top);
        Out.push_back(Fresh);
      } else {
        if (Level < Sub.size()) {
          Out.push_back(Sub[Level]);
        } else {
          QShape Fresh = freshShape(0, E->Loc, "cast");
          Out.push_back(Fresh[0]);
        }
      }
      TypePtr Bare = Type::withoutQuals(Cur);
      if (!Bare->isPointer())
        break;
      Cur = Bare->pointee();
    }
    return Out;
  }
  case Expr::Kind::Call:
    return shapeOfCall(cast<CallExpr>(E));
  }
  return freshShape(0, E->Loc, "expr");
}

void CqualEngine::assignInto(const QShape &Dst, const Expr *RHS,
                             SourceLoc Loc) {
  QShape Src = shapeOfExpr(RHS);
  constrainShapes(Src, Dst, Loc);
}

void CqualEngine::walkStmt(const Stmt *S, const FuncDecl *Fn) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      walkStmt(Sub, Fn);
    return;
  case Stmt::Kind::Decl: {
    const VarDecl *Var = cast<DeclStmt>(S)->Var;
    if (Var->Init)
      assignInto(shapeForVar(Var), Var->Init, Var->Loc);
    return;
  }
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    assignInto(shapeOfLValue(Assign->LHS), Assign->RHS, Assign->Loc);
    return;
  }
  case Stmt::Kind::CallStmt:
    shapeOfCall(cast<CallStmt>(S)->Call);
    return;
  case Stmt::Kind::If:
    shapeOfExpr(cast<IfStmt>(S)->Cond);
    walkStmt(cast<IfStmt>(S)->Then, Fn);
    walkStmt(cast<IfStmt>(S)->Else, Fn);
    return;
  case Stmt::Kind::While:
    shapeOfExpr(cast<WhileStmt>(S)->Cond);
    walkStmt(cast<WhileStmt>(S)->Body, Fn);
    return;
  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    walkStmt(For->Init, Fn);
    if (For->Cond)
      shapeOfExpr(For->Cond);
    walkStmt(For->Step, Fn);
    walkStmt(For->Body, Fn);
    return;
  }
  case Stmt::Kind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->Value && Fn)
      assignInto(shapeForReturn(Fn), Ret->Value, Ret->Loc);
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void CqualEngine::solve() {
  // Propagate taint (lower bounds of Top) forward through the graph; an
  // error is a tainted variable whose upper bound is Bottom.
  std::vector<bool> Tainted = LowerTaint;
  std::queue<QVar> Work;
  for (QVar V = 0; V < Tainted.size(); ++V)
    if (Tainted[V])
      Work.push(V);
  while (!Work.empty()) {
    QVar V = Work.front();
    Work.pop();
    for (QVar W : Succ[V]) {
      if (Tainted[W])
        continue;
      Tainted[W] = true;
      Work.push(W);
    }
  }
  for (QVar V = 0; V < Tainted.size(); ++V) {
    if (Tainted[V] && UpperBottom[V]) {
      FlowError E;
      E.Loc = VarLoc[V];
      E.Description = Config.Top + " data flows into " + Config.Bottom +
                      "-annotated position (" + VarDesc[V] + ")";
      Result.Errors.push_back(std::move(E));
    }
  }
}

InferenceResult CqualEngine::run() {
  for (const VarDecl *G : Prog.Globals)
    if (G->Init)
      assignInto(shapeForVar(G), G->Init, G->Loc);
  for (const FuncDecl *Fn : Prog.Functions) {
    for (const VarDecl *P : Fn->Params)
      shapeForVar(P);
    shapeForReturn(Fn);
    if (Fn->isDefinition())
      walkStmt(Fn->Body, Fn);
  }
  solve();
  Result.NumVars = static_cast<unsigned>(LowerTaint.size());
  return Result;
}

} // namespace

InferenceResult stq::cqual::runInference(const Program &Prog,
                                         const LatticeConfig &Config) {
  CqualEngine Engine(Prog, Config);
  return Engine.run();
}
