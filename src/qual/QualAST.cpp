//===- QualAST.cpp --------------------------------------------------------===//

#include "qual/QualAST.h"

#include "cminus/Type.h"

using namespace stq;
using namespace stq::qual;
using cminus::TypePtr;

const char *stq::qual::classifierName(Classifier C) {
  switch (C) {
  case Classifier::Expr:
    return "Expr";
  case Classifier::Const:
    return "Const";
  case Classifier::LValue:
    return "LValue";
  case Classifier::Var:
    return "Var";
  }
  return "?";
}

bool TypePattern::matches(const TypePtr &Ty) const {
  // Only the shape is compared, so qualifiers are ignored at every level
  // without building an unqualified copy of Ty.
  switch (K) {
  case Kind::Any:
    return true;
  case Kind::Int:
    return Ty->isInt();
  case Kind::Char:
    return Ty->isChar();
  case Kind::Pointer:
    return Ty->isPointer() && Pointee->matches(Ty->pointee());
  }
  return false;
}

std::string TypePattern::str() const {
  switch (K) {
  case Kind::Any:
    return "T";
  case Kind::Int:
    return "int";
  case Kind::Char:
    return "char";
  case Kind::Pointer:
    return Pointee->str() + "*";
  }
  return "?";
}

std::string ExprPattern::str() const {
  switch (K) {
  case Kind::Var:
    return X;
  case Kind::Deref:
    return "*" + X;
  case Kind::AddrOf:
    return "&" + X;
  case Kind::New:
    return "new";
  case Kind::Null:
    return "NULL";
  case Kind::Unary:
    return std::string(cminus::unaryOpSpelling(Uop)) + X;
  case Kind::Binary:
    return X + " " + cminus::binaryOpSpelling(Bop) + " " + Y;
  }
  return "?";
}

static std::string termStr(const Pred::Term &T) {
  switch (T.K) {
  case Pred::Term::Kind::Var:
    return T.Var;
  case Pred::Term::Kind::Int:
    return std::to_string(T.Int);
  case Pred::Term::Kind::Null:
    return "NULL";
  }
  return "?";
}

std::string Pred::str() const {
  switch (K) {
  case Kind::True:
    return "true";
  case Kind::And:
    return "(" + LHS->str() + " && " + RHS->str() + ")";
  case Kind::Or:
    return "(" + LHS->str() + " || " + RHS->str() + ")";
  case Kind::QualCheck:
    return Qual + "(" + Var + ")";
  case Kind::Compare:
    return termStr(A) + " " + cminus::binaryOpSpelling(CmpOp) + " " +
           termStr(B);
  }
  return "?";
}

const VarPatternDecl *Clause::findDecl(const std::string &Name) const {
  for (const VarPatternDecl &D : Decls)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

std::string InvTerm::str() const {
  switch (K) {
  case Kind::ValueOf:
    return "value(" + Var + ")";
  case Kind::LocationOf:
    return "location(" + Var + ")";
  case Kind::Deref:
    return "*" + Var;
  case Kind::VarRef:
    return Var;
  case Kind::Int:
    return std::to_string(Int);
  case Kind::Null:
    return "NULL";
  }
  return "?";
}

std::string InvPred::str() const {
  switch (K) {
  case Kind::Compare:
    return A.str() + " " + cminus::binaryOpSpelling(CmpOp) + " " + B.str();
  case Kind::IsHeapLoc:
    return "isHeapLoc(" + A.str() + ")";
  case Kind::And:
    return "(" + LHS->str() + " && " + RHS->str() + ")";
  case Kind::Or:
    return "(" + LHS->str() + " || " + RHS->str() + ")";
  case Kind::Implies:
    return "(" + LHS->str() + " => " + RHS->str() + ")";
  case Kind::Forall:
    return "forall " + ForallTy.str() + " " + ForallVar + ": " + Body->str();
  }
  return "?";
}

void QualifierSet::add(QualifierDef Def) { Defs.push_back(std::move(Def)); }

const QualifierDef *QualifierSet::find(const std::string &Name) const {
  for (const QualifierDef &D : Defs)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

std::vector<std::string> QualifierSet::names() const {
  std::vector<std::string> Out;
  Out.reserve(Defs.size());
  for (const QualifierDef &D : Defs)
    Out.push_back(D.Name);
  return Out;
}

std::vector<std::string> QualifierSet::refNames() const {
  std::vector<std::string> Out;
  for (const QualifierDef &D : Defs)
    if (D.IsRef)
      Out.push_back(D.Name);
  return Out;
}
