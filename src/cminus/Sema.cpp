//===- Sema.cpp -----------------------------------------------------------===//

#include "cminus/Sema.h"

#include "support/Trace.h"

#include <cassert>

using namespace stq;
using namespace stq::cminus;

bool stq::cminus::isBaseAssignable(TypePtr Src, TypePtr Dst) {
  TypePtr S = Type::deepUnqualified(Src);
  TypePtr D = Type::deepUnqualified(Dst);
  if (Type::equals(S, D))
    return true;
  // char and int interconvert.
  if (S->isArithmetic() && D->isArithmetic())
    return true;
  // void* converts to and from any pointer (C rules; malloc idiom).
  if (S->isPointer() && D->isPointer()) {
    if (S->pointee()->isVoid() || D->pointee()->isVoid())
      return true;
    // char* and void* aside, pointees must agree exactly.
    return Type::equals(S->pointee(), D->pointee());
  }
  return false;
}

namespace {

class Sema {
public:
  Sema(Program &Prog, const std::vector<std::string> &RefQualNames,
       DiagnosticEngine &Diags)
      : Prog(Prog), Types(Prog.types()), RefQuals(RefQualNames), Diags(Diags),
        IntTy(Types.getInt()), VoidTy(Types.getVoid()),
        VoidPtrTy(Types.getPointer(VoidTy)),
        CharPtrTy(Types.getPointer(Types.getChar())) {}

  bool run();

private:
  void error(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, "sema", Message);
  }

  void checkFunction(FuncDecl *Fn);
  void checkStmt(Stmt *S);
  /// Checks an initialization or assignment of \p RHS into type \p DstTy.
  void checkAssignable(TypePtr DstTy, Expr *RHS, SourceLoc Loc,
                       const char *What);

  /// Computes and stores the type of \p E; returns it (never null; falls
  /// back to int after reporting an error).
  TypePtr typeOf(Expr *E);
  TypePtr typeOfLValue(LValue *LV);
  TypePtr typeOfCall(CallExpr *Call);

  /// Strips reference qualifiers from the top level of \p T (r-type rule).
  TypePtr stripRefQuals(TypePtr T) {
    return Types.withoutQualsIn(T, RefQuals);
  }

  Program &Prog;
  TypeContext &Types;
  const std::vector<std::string> &RefQuals;
  DiagnosticEngine &Diags;
  FuncDecl *CurrentFn = nullptr;
  // Types every unit needs, interned once.
  const TypePtr IntTy, VoidTy, VoidPtrTy, CharPtrTy;
};

} // namespace

bool Sema::run() {
  unsigned ErrorsBefore = Diags.errorCount();
  for (VarDecl *G : Prog.Globals)
    if (G->Init)
      checkAssignable(G->DeclaredTy, G->Init, G->Loc, "global initializer");
  for (FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      checkFunction(Fn);
  return Diags.errorCount() == ErrorsBefore;
}

void Sema::checkFunction(FuncDecl *Fn) {
  CurrentFn = Fn;
  if (Type::withoutQuals(Fn->RetTy)->isStruct())
    error(Fn->Loc, "functions cannot return struct values; return a "
                   "pointer instead");
  for (const VarDecl *P : Fn->Params)
    if (Type::withoutQuals(P->DeclaredTy)->isStruct())
      error(P->Loc, "struct parameters are not supported; pass a pointer");
  checkStmt(Fn->Body);
  CurrentFn = nullptr;
}

void Sema::checkStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      checkStmt(Sub);
    return;
  case Stmt::Kind::Decl: {
    VarDecl *Var = cast<DeclStmt>(S)->Var;
    if (Var->DeclaredTy->isVoid()) {
      error(Var->Loc,
            "variable '" + std::string(Var->Name) + "' has void type");
      return;
    }
    if (Var->Init)
      checkAssignable(Var->DeclaredTy, Var->Init, Var->Loc, "initializer");
    return;
  }
  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    TypePtr LHSTy = typeOfLValue(Assign->LHS);
    checkAssignable(LHSTy, Assign->RHS, Assign->Loc, "assignment");
    return;
  }
  case Stmt::Kind::CallStmt:
    typeOf(cast<CallStmt>(S)->Call);
    return;
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    TypePtr CondTy = typeOf(If->Cond);
    if (!CondTy->isArithmetic() && !CondTy->isPointer())
      error(If->Cond->Loc, "if condition must be arithmetic or a pointer");
    checkStmt(If->Then);
    checkStmt(If->Else);
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    TypePtr CondTy = typeOf(While->Cond);
    if (!CondTy->isArithmetic() && !CondTy->isPointer())
      error(While->Cond->Loc,
            "while condition must be arithmetic or a pointer");
    checkStmt(While->Body);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    checkStmt(For->Init);
    if (For->Cond) {
      TypePtr CondTy = typeOf(For->Cond);
      if (!CondTy->isArithmetic() && !CondTy->isPointer())
        error(For->Cond->Loc,
              "for condition must be arithmetic or a pointer");
    }
    checkStmt(For->Step);
    checkStmt(For->Body);
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    assert(CurrentFn && "return outside function");
    if (Ret->Value) {
      if (CurrentFn->RetTy->isVoid())
        error(Ret->Loc, "void function '" + std::string(CurrentFn->Name) +
                            "' returns a value");
      else
        checkAssignable(CurrentFn->RetTy, Ret->Value, Ret->Loc,
                        "return value");
    } else if (!CurrentFn->RetTy->isVoid()) {
      error(Ret->Loc, "non-void function '" + std::string(CurrentFn->Name) +
                          "' returns no value");
    }
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void Sema::checkAssignable(TypePtr DstTy, Expr *RHS, SourceLoc Loc,
                           const char *What) {
  TypePtr RHSTy = typeOf(RHS);
  if (isa<NullConstExpr>(RHS) && DstTy->isPointer())
    return;
  // Whole-struct copies are outside the C-minus subset (CIL would expand
  // them field by field); structs are manipulated through fields and
  // pointers.
  if (Type::withoutQuals(DstTy)->isStruct()) {
    error(Loc, std::string("struct values cannot be copied in ") + What +
                   "; assign the fields individually");
    return;
  }
  if (!isBaseAssignable(RHSTy, DstTy))
    error(Loc, std::string("incompatible types in ") + What + ": cannot use '" +
                   RHSTy->str() + "' as '" + DstTy->str() + "'");
}

TypePtr Sema::typeOfLValue(LValue *LV) {
  if (LV->Ty)
    return LV->Ty;
  TypePtr Cur = nullptr;
  if (LV->isVar()) {
    Cur = LV->Var->DeclaredTy;
  } else {
    TypePtr AddrTy = typeOf(LV->Addr);
    if (!AddrTy->isPointer()) {
      error(LV->Loc, "cannot dereference non-pointer type '" + AddrTy->str() +
                         "'");
      Cur = IntTy;
    } else {
      Cur = AddrTy->pointee();
    }
  }
  for (std::string_view Field : LV->Fields) {
    TypePtr Bare = Type::withoutQuals(Cur);
    if (!Bare->isStruct()) {
      error(LV->Loc, "member access on non-struct type '" + Cur->str() + "'");
      Cur = IntTy;
      break;
    }
    StructDef *Def = Prog.findStruct(Bare->structName());
    if (!Def) {
      error(LV->Loc, "unknown struct '" + Bare->structName() + "'");
      Cur = IntTy;
      break;
    }
    const StructDef::Field *F = Def->findField(Field);
    if (!F) {
      error(LV->Loc, "struct '" + std::string(Def->Name) + "' has no field '" +
                         std::string(Field) + "'");
      Cur = IntTy;
      break;
    }
    Cur = F->Ty;
  }
  LV->Ty = Cur;
  return Cur;
}

TypePtr Sema::typeOfCall(CallExpr *Call) {
  FuncDecl *Callee = Prog.findFunction(Call->CalleeName);
  // Builtin allocation and I/O routines are available without declaration,
  // standing in for the paper's alternate library-header signatures.
  if (!Callee) {
    if (Call->CalleeName == "malloc") {
      Call->IsAlloc = true;
      for (Expr *Arg : Call->Args)
        typeOf(Arg);
      if (Call->Args.size() != 1)
        error(Call->Loc, "malloc takes exactly one argument");
      return VoidPtrTy;
    }
    if (Call->CalleeName == "free") {
      for (Expr *Arg : Call->Args)
        typeOf(Arg);
      if (Call->Args.size() != 1)
        error(Call->Loc, "free takes exactly one argument");
      return VoidTy;
    }
    if (Call->CalleeName == "printf") {
      for (Expr *Arg : Call->Args)
        typeOf(Arg);
      if (Call->Args.empty())
        error(Call->Loc, "printf requires a format string");
      return IntTy;
    }
    error(Call->Loc, "call to undeclared function '" +
                         std::string(Call->CalleeName) + "'");
    for (Expr *Arg : Call->Args)
      typeOf(Arg);
    return IntTy;
  }

  Call->Callee = Callee;
  if (Call->CalleeName == "malloc")
    Call->IsAlloc = true;
  size_t NumParams = Callee->Params.size();
  if (Call->Args.size() < NumParams ||
      (Call->Args.size() > NumParams && !Callee->Variadic)) {
    error(Call->Loc, "wrong number of arguments to '" +
                         std::string(Callee->Name) + "': expected " + std::to_string(NumParams) +
                         (Callee->Variadic ? "+" : "") + ", got " +
                         std::to_string(Call->Args.size()));
  }
  for (size_t I = 0; I < Call->Args.size(); ++I) {
    if (I < NumParams)
      checkAssignable(Callee->Params[I]->DeclaredTy, Call->Args[I],
                      Call->Args[I]->Loc, "argument");
    else
      typeOf(Call->Args[I]);
  }
  return Callee->RetTy;
}

TypePtr Sema::typeOf(Expr *E) {
  if (E->Ty)
    return E->Ty;
  TypePtr Result = nullptr;
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
    Result = IntTy;
    break;
  case Expr::Kind::StrConst:
    Result = CharPtrTy;
    break;
  case Expr::Kind::NullConst:
    Result = VoidPtrTy;
    break;
  case Expr::Kind::LValRead: {
    auto *Read = cast<LValReadExpr>(E);
    TypePtr LVTy = typeOfLValue(Read->LV);
    // Reference qualifiers are not part of the r-type (section 2.2.1).
    Result = stripRefQuals(LVTy);
    break;
  }
  case Expr::Kind::AddrOf: {
    auto *Addr = cast<AddrOfExpr>(E);
    // Reference qualifiers describe the l-value's address identity, not its
    // contents, so they do not become part of the pointee type.
    Result = Types.getPointer(stripRefQuals(typeOfLValue(Addr->LV)));
    break;
  }
  case Expr::Kind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    TypePtr SubTy = typeOf(Un->Sub);
    if (Un->Op == UnaryOp::Not) {
      if (!SubTy->isArithmetic() && !SubTy->isPointer())
        error(E->Loc, "operand of '!' must be arithmetic or a pointer");
    } else if (!SubTy->isArithmetic()) {
      error(E->Loc, std::string("operand of unary '") +
                        unaryOpSpelling(Un->Op) + "' must be arithmetic");
    }
    Result = IntTy;
    break;
  }
  case Expr::Kind::Binary: {
    auto *Bin = cast<BinaryExpr>(E);
    TypePtr L = typeOf(Bin->LHS);
    TypePtr R = typeOf(Bin->RHS);
    switch (Bin->Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
      // Pointer arithmetic keeps the pointer's type (the paper's logical
      // model of memory: p+i has the type of p).
      if (L->isPointer() && R->isArithmetic()) {
        Result = L;
      } else if (Bin->Op == BinaryOp::Add && L->isArithmetic() &&
                 R->isPointer()) {
        Result = R;
      } else if (L->isArithmetic() && R->isArithmetic()) {
        Result = IntTy;
      } else if (Bin->Op == BinaryOp::Sub && L->isPointer() &&
                 R->isPointer()) {
        Result = IntTy;
      } else {
        error(E->Loc, std::string("invalid operands to '") +
                          binaryOpSpelling(Bin->Op) + "': '" + L->str() +
                          "' and '" + R->str() + "'");
        Result = IntTy;
      }
      break;
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem:
      if (!L->isArithmetic() || !R->isArithmetic())
        error(E->Loc, std::string("invalid operands to '") +
                          binaryOpSpelling(Bin->Op) + "'");
      Result = IntTy;
      break;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      bool BothArith = L->isArithmetic() && R->isArithmetic();
      bool BothPtr = L->isPointer() && R->isPointer();
      bool NullCmp = (L->isPointer() && isa<NullConstExpr>(Bin->RHS)) ||
                     (R->isPointer() && isa<NullConstExpr>(Bin->LHS));
      if (!BothArith && !BothPtr && !NullCmp)
        error(E->Loc, std::string("invalid comparison between '") + L->str() +
                          "' and '" + R->str() + "'");
      Result = IntTy;
      break;
    }
    case BinaryOp::LAnd:
    case BinaryOp::LOr:
      Result = IntTy;
      break;
    }
    break;
  }
  case Expr::Kind::Cast: {
    auto *Cast_ = cast<CastExpr>(E);
    TypePtr SubTy = typeOf(Cast_->Sub);
    TypePtr S = Type::deepUnqualified(SubTy);
    TypePtr D = Type::deepUnqualified(Cast_->Target);
    bool Ok = (S->isArithmetic() || S->isPointer()) &&
              (D->isArithmetic() || D->isPointer());
    // Identity and qualifier-only casts are always fine.
    if (!Ok && !Type::equals(S, D))
      error(E->Loc, "invalid cast from '" + SubTy->str() + "' to '" +
                        Cast_->Target->str() + "'");
    Result = Cast_->Target;
    break;
  }
  case Expr::Kind::Call:
    Result = typeOfCall(cast<CallExpr>(E));
    break;
  case Expr::Kind::SizeofType:
    Result = IntTy;
    break;
  }
  assert(Result && "expression type not computed");
  E->Ty = Result;
  return Result;
}

bool stq::cminus::runSema(Program &Prog,
                          const std::vector<std::string> &RefQualNames,
                          DiagnosticEngine &Diags) {
  trace::Span Span("sema");
  Sema S(Prog, RefQualNames, Diags);
  return S.run();
}
