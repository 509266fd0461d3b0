//===- Checker.cpp --------------------------------------------------------===//

#include "checker/Checker.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;
using qual::Classifier;
using qual::Clause;
using qual::ExprPattern;
using qual::Pred;
using qual::QualifierDef;

namespace {

/// Calls \p Fn on the definition of every reference qualifier on \p Ty.
template <typename F>
void forEachRefQual(const qual::QualifierSet &Quals, const TypePtr &Ty, F Fn) {
  for (const std::string &Name : Ty->quals())
    if (const QualifierDef *Q = Quals.find(Name))
      if (Q->IsRef)
        Fn(Q);
}

} // namespace

QualChecker::QualChecker(Program &Prog, const qual::QualifierSet &Quals,
                         DiagnosticEngine &Diags, CheckerOptions Options)
    : Prog(&Prog), Quals(Quals), Diags(&Diags), Options(Options) {}

void QualChecker::warn(SourceLoc Loc, const std::string &Message) {
  // The paper's implementation reports qualifier errors as warnings and
  // lets compilation continue.
  Diags->warning(Loc, "qualcheck", Message);
  ++Result.QualErrors;
}

std::string QualChecker::AssignSite::str() const {
  switch (K) {
  case Kind::Init:
    return "initialization of '" + std::string(Name) + "'";
  case Kind::GlobalInit:
    return "initialization of global '" + std::string(Name) + "'";
  case Kind::Assign:
    return "assignment to '" + printLValue(Target) + "'";
  case Kind::Return:
    return "return from '" + std::string(Name) + "'";
  case Kind::Argument:
    return "argument " + std::to_string(Arg) + " of call to '" +
           std::string(Name) + "'";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// hasQualifier
//===----------------------------------------------------------------------===//

bool QualChecker::hasQualifier(const Expr *E, const std::string &QualName) {
  return hasQualifier(E, Quals.find(QualName));
}

bool QualChecker::hasQualifier(const Expr *E, const QualifierDef *Q) {
  ++Result.Stats.HasQualQueries;
  if (!Q || !E->Ty)
    return false;
  if (Options.AssumedCasts) {
    auto Assumed = Options.AssumedCasts->find(E->Id);
    if (Assumed != Options.AssumedCasts->end())
      for (const std::string &Name : Assumed->second)
        if (Name == Q->Name)
          return true;
  }
  if (Options.AssumedVarQuals) {
    if (const auto *Read = dyn_cast<LValReadExpr>(E)) {
      if (Read->LV->isBareVar()) {
        auto Found = Options.AssumedVarQuals->find(Read->LV->Var);
        if (Found != Options.AssumedVarQuals->end() &&
            Found->second.count(Q->Name))
          return true;
      }
    }
  }
  // Flow-sensitive narrowing: the guarding condition verified the
  // invariant for this variable. Pointer arithmetic keeps the narrowed
  // qualifier (the logical memory model: p+i has p's type).
  if (Options.FlowSensitiveNarrowing && !Narrowed.empty()) {
    const Expr *Root = E;
    while (true) {
      if (const auto *Bin = dyn_cast<BinaryExpr>(Root)) {
        if ((Bin->Op == BinaryOp::Add || Bin->Op == BinaryOp::Sub) &&
            Bin->LHS->Ty && Bin->LHS->Ty->isPointer()) {
          Root = Bin->LHS;
          continue;
        }
        if (Bin->Op == BinaryOp::Add && Bin->RHS->Ty &&
            Bin->RHS->Ty->isPointer()) {
          Root = Bin->RHS;
          continue;
        }
      }
      break;
    }
    if (const auto *Read = dyn_cast<LValReadExpr>(Root)) {
      if (Read->LV->isBareVar()) {
        auto Found = Narrowed.find(Read->LV->Var);
        if (Found != Narrowed.end() && Found->second.count(Q->Name))
          return true;
      }
    }
  }
  // Declared/static types carry value qualifiers directly (variable
  // declarations, function returns, casts, pointer arithmetic under the
  // logical memory model).
  if (E->Ty->hasQual(Q->Name))
    return true;
  if (Q->IsRef)
    return false; // Reference qualifiers never attach to r-types.
  if (!Q->SubjectTy.matches(E->Ty))
    return false;
  if (Q->Cases.empty())
    return false;

  // A definition from outside this checker's set is not memoized.
  const std::vector<QualifierDef> &All = Quals.all();
  const std::less<const QualifierDef *> Before;
  const bool Memoize = Options.Memoize && !Before(Q, All.data()) &&
                       Before(Q, All.data() + All.size());
  const unsigned QualIndex =
      Memoize ? static_cast<unsigned>(Q - All.data()) : 0;
  if (Memoize) {
    if (const bool *Known = Memo.find(E->Id, QualIndex)) {
      ++Result.Stats.MemoHits;
      return *Known;
    }
  }
  const std::pair<unsigned, const QualifierDef *> Key(E->Id, Q);
  if (std::find(InProgress.begin(), InProgress.end(), Key) !=
      InProgress.end()) {
    // A derivation may not depend on itself (least fixpoint).
    TouchedInProgress = true;
    return false;
  }

  InProgress.push_back(Key);
  bool SavedTouched = TouchedInProgress;
  TouchedInProgress = false;

  bool Derivable = false;
  for (const Clause &C : Q->Cases) {
    Bindings B;
    if (matchExprPattern(C, Q, E, B) && evalPred(C.Where, B)) {
      Derivable = true;
      break;
    }
  }

  InProgress.pop_back();
  // Results that consulted an in-progress query hold only in this
  // derivation context; do not cache them.
  if (Memoize && !TouchedInProgress)
    Memo.insert(E->Id, QualIndex, Derivable);
  TouchedInProgress = TouchedInProgress || SavedTouched;
  return Derivable;
}

size_t QualChecker::MemoTable::home(unsigned Id, unsigned Qual) const {
  uint64_t Key = (uint64_t(Id) << 8) ^ Qual;
  return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> 32) &
         (Table.size() - 1);
}

const bool *QualChecker::MemoTable::find(unsigned Id, unsigned Qual) const {
  if (Live == 0)
    return nullptr;
  for (size_t I = home(Id, Qual);; I = (I + 1) & (Table.size() - 1)) {
    const Entry &E = Table[I];
    if (E.Stamp != Generation)
      return nullptr;
    if (E.Id == Id && E.Qual == Qual)
      return &E.Derivable;
  }
}

void QualChecker::MemoTable::insert(unsigned Id, unsigned Qual, bool Derivable) {
  if (2 * (Live + 1) > Table.size()) {
    // Grow to keep the load under one half; only live entries move.
    std::vector<Entry> Old(std::max<size_t>(64, 2 * Table.size()));
    Old.swap(Table);
    const uint32_t OldGeneration = Generation;
    Generation = 1;
    Live = 0;
    for (const Entry &E : Old)
      if (E.Stamp == OldGeneration)
        insert(E.Id, E.Qual, E.Derivable);
  }
  size_t I = home(Id, Qual);
  while (Table[I].Stamp == Generation)
    I = (I + 1) & (Table.size() - 1);
  Table[I] = Entry{Generation, Id, Qual, Derivable};
  ++Live;
}

void QualChecker::MemoTable::clear() {
  Live = 0;
  if (++Generation == 0) {
    // The stamps wrapped: forget every entry for real, once.
    std::fill(Table.begin(), Table.end(), Entry{});
    Generation = 1;
  }
}

//===----------------------------------------------------------------------===//
// Pattern matching
//===----------------------------------------------------------------------===//

bool QualChecker::bindVar(const Clause &C, const QualifierDef *Q,
                          const std::string &Name, const Expr *E,
                          Bindings &Out) {
  (void)Q;
  if (const Binding *Bound = Out.find(Name))
    return Bound->E == E; // Nonlinear patterns require the same node.
  const qual::VarPatternDecl *D = C.findDecl(Name);
  if (!D) {
    // The subject variable binds to anything of the subject's kind; its
    // type was checked before matching began.
    Out.bind(Name, E, nullptr);
    return true;
  }
  switch (D->Cls) {
  case Classifier::Expr:
    break;
  case Classifier::Const:
    if (!isa<IntConstExpr>(E) && !isa<StrConstExpr>(E) &&
        !isa<NullConstExpr>(E))
      return false;
    break;
  case Classifier::LValue:
    if (!isa<LValReadExpr>(E))
      return false;
    break;
  case Classifier::Var:
    if (const auto *Read = dyn_cast<LValReadExpr>(E)) {
      if (!Read->LV->isBareVar())
        return false;
    } else {
      return false;
    }
    break;
  }
  if (E->Ty && !D->Ty.matches(E->Ty))
    return false;
  Out.bind(Name, E, nullptr);
  return true;
}

bool QualChecker::bindLValue(const Clause &C, const std::string &Name,
                             const LValue *LV, Bindings &Out) {
  if (const Binding *Bound = Out.find(Name))
    return Bound->LV == LV;
  const qual::VarPatternDecl *D = C.findDecl(Name);
  if (!D)
    return false;
  if (D->Cls == Classifier::Var && !LV->isBareVar())
    return false;
  if (D->Cls != Classifier::Var && D->Cls != Classifier::LValue)
    return false;
  if (LV->Ty && !D->Ty.matches(LV->Ty))
    return false;
  Out.bind(Name, nullptr, LV);
  return true;
}

bool QualChecker::matchExprPattern(const Clause &C, const QualifierDef *Q,
                                   const Expr *E, Bindings &Out) {
  const ExprPattern &P = C.Pattern;
  // Bind the subject first so `case E of E` (tainted) matches anything.
  if (Q)
    Out.bind(Q->SubjectVar, E, nullptr);
  switch (P.K) {
  case ExprPattern::Kind::Var:
    return bindVar(C, Q, P.X, E, Out);
  case ExprPattern::Kind::Deref: {
    const auto *Read = dyn_cast<LValReadExpr>(E);
    if (!Read || !Read->LV->isMem() || !Read->LV->Fields.empty())
      return false;
    return bindVar(C, Q, P.X, Read->LV->Addr, Out);
  }
  case ExprPattern::Kind::AddrOf: {
    const auto *Addr = dyn_cast<AddrOfExpr>(E);
    if (!Addr)
      return false;
    return bindLValue(C, P.X, Addr->LV, Out);
  }
  case ExprPattern::Kind::Unary: {
    const auto *Un = dyn_cast<UnaryExpr>(E);
    if (!Un || Un->Op != P.Uop)
      return false;
    return bindVar(C, Q, P.X, Un->Sub, Out);
  }
  case ExprPattern::Kind::Binary: {
    const auto *Bin = dyn_cast<BinaryExpr>(E);
    if (!Bin || Bin->Op != P.Bop)
      return false;
    return bindVar(C, Q, P.X, Bin->LHS, Out) &&
           bindVar(C, Q, P.Y, Bin->RHS, Out);
  }
  case ExprPattern::Kind::New:
  case ExprPattern::Kind::Null:
    return false; // Only meaningful in assign blocks.
  }
  return false;
}

bool QualChecker::matchAssignPattern(const Clause &C, const Expr *E,
                                     Bindings &Out) {
  switch (C.Pattern.K) {
  case ExprPattern::Kind::Null:
    return isa<NullConstExpr>(E);
  case ExprPattern::Kind::New: {
    const CallExpr *Call = getDirectCall(E);
    return Call && Call->IsAlloc;
  }
  default:
    // The subject (the assigned l-value) is not an expression binding here.
    return matchExprPattern(C, /*Q=*/nullptr, E, Out);
  }
}

namespace {

/// A comparison operand value: an integer or NULL.
struct TermValue {
  bool IsNull = false;
  int64_t Int = 0;
  bool Valid = false;
};

} // namespace

bool QualChecker::evalPred(const Pred &P, const Bindings &B) {
  switch (P.K) {
  case Pred::Kind::True:
    return true;
  case Pred::Kind::And:
    return evalPred(*P.LHS, B) && evalPred(*P.RHS, B);
  case Pred::Kind::Or:
    return evalPred(*P.LHS, B) || evalPred(*P.RHS, B);
  case Pred::Kind::QualCheck: {
    const Binding *Found = B.find(P.Var);
    if (!Found || !Found->E)
      return false;
    return hasQualifier(Found->E, P.Qual);
  }
  case Pred::Kind::Compare: {
    auto Eval = [&](const Pred::Term &T) -> TermValue {
      TermValue V;
      switch (T.K) {
      case Pred::Term::Kind::Int:
        V.Int = T.Int;
        V.Valid = true;
        return V;
      case Pred::Term::Kind::Null:
        V.IsNull = true;
        V.Valid = true;
        return V;
      case Pred::Term::Kind::Var: {
        const Binding *Found = B.find(T.Var);
        if (!Found || !Found->E)
          return V;
        if (const auto *IC = dyn_cast<IntConstExpr>(Found->E)) {
          V.Int = IC->Value;
          V.Valid = true;
        } else if (isa<NullConstExpr>(Found->E)) {
          V.IsNull = true;
          V.Valid = true;
        }
        return V;
      }
      }
      return V;
    };
    TermValue A = Eval(P.A), Bv = Eval(P.B);
    if (!A.Valid || !Bv.Valid)
      return false;
    if (A.IsNull || Bv.IsNull) {
      bool BothNull = A.IsNull && Bv.IsNull;
      if (P.CmpOp == BinaryOp::Eq)
        return BothNull;
      if (P.CmpOp == BinaryOp::Ne)
        return !BothNull;
      return false;
    }
    switch (P.CmpOp) {
    case BinaryOp::Eq:
      return A.Int == Bv.Int;
    case BinaryOp::Ne:
      return A.Int != Bv.Int;
    case BinaryOp::Lt:
      return A.Int < Bv.Int;
    case BinaryOp::Le:
      return A.Int <= Bv.Int;
    case BinaryOp::Gt:
      return A.Int > Bv.Int;
    case BinaryOp::Ge:
      return A.Int >= Bv.Int;
    default:
      return false;
    }
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Assignments
//===----------------------------------------------------------------------===//

void QualChecker::checkAssignmentTo(const TypePtr &DstTy, const Expr *RHS,
                                    SourceLoc Loc, const AssignSite &What,
                                    const VarDecl *TargetVar) {
  forEachRefQual(Quals, DstTy, [&](const QualifierDef *Q) {
    checkRefAssign(Q, RHS, Loc, What, TargetVar);
  });
  checkValueQualFlow(DstTy, RHS, Loc, What, TargetVar);
}

void QualChecker::checkValueQualFlow(const TypePtr &DstTy, const Expr *RHS,
                                     SourceLoc Loc, const AssignSite &What,
                                     const VarDecl *TargetVar) {
  TypePtr RHSTy = RHS->Ty;
  // Nested qualifier sets must agree exactly: there is no subtyping under
  // pointers (section 2.1.2). NULL and void* conversions are exempt.
  if (!isa<NullConstExpr>(RHS) && RHSTy && RHSTy->isPointer() &&
      DstTy->isPointer() && !RHSTy->pointee()->isVoid() &&
      !DstTy->pointee()->isVoid() &&
      !Type::equals(RHSTy->pointee(), DstTy->pointee())) {
    warn(Loc, "qualifier mismatch below pointer type in " + What.str() +
                  ": cannot use '" + RHSTy->str() + "' as '" + DstTy->str() +
                  "' (no subtyping under pointers)");
    return;
  }
  for (const std::string &Name : DstTy->quals()) {
    const QualifierDef *Q = Quals.find(Name);
    if (!Q || Q->IsRef)
      continue;
    ++Result.Stats.AssignChecks;
    if (!hasQualifier(RHS, Q)) {
      ++Result.Stats.AssignFailures;
      Result.Failures.push_back(
          {QualFailure::Kind::Assign, Name, Loc, RHS, TargetVar});
      warn(Loc, "cannot derive qualifier '" + Name + "' for '" +
                    printExpr(RHS) + "' in " + What.str());
    }
  }
}

void QualChecker::checkRefAssign(const QualifierDef *Q, const Expr *RHS,
                                 SourceLoc Loc, const AssignSite &What,
                                 const VarDecl *TargetVar) {
  ++Result.Stats.RefAssignChecks;
  // A cast to a Q-qualified type is an unchecked escape hatch, as with
  // traditional C casts (section 2.2.3: reference-qualifier casts are not
  // instrumented).
  if (const auto *Cast_ = dyn_cast<CastExpr>(RHS))
    if (Cast_->Target->hasQual(Q->Name))
      return;
  // Without an assign block, assignments are unrestricted (e.g. unaliased:
  // the qualifier is a property of the address only).
  if (Q->Assigns.empty())
    return;
  for (const Clause &C : Q->Assigns) {
    Bindings B;
    if (matchAssignPattern(C, RHS, B) && evalPred(C.Where, B))
      return;
  }
  ++Result.Stats.RefAssignFailures;
  Result.Failures.push_back(
      {QualFailure::Kind::RefAssign, Q->Name, Loc, RHS, TargetVar});
  warn(Loc, "assignment to '" + Q->Name + "' l-value in " + What.str() +
                " does not match any assign rule of '" + Q->Name +
                "' (rhs: " + printExpr(RHS) + ")");
}

//===----------------------------------------------------------------------===//
// Restrict clauses
//===----------------------------------------------------------------------===//

void QualChecker::runRestrictClause(const QualifierDef *Q, const Clause &C,
                                    Bindings &B, SourceLoc Loc,
                                    const Expr *Site, bool Deref) {
  ++Result.Stats.RestrictChecks;
  if (evalPred(C.Where, B))
    return;
  ++Result.Stats.RestrictFailures;
  const Expr *Offending = nullptr;
  if (const Binding *Bound = B.find(C.Pattern.X))
    Offending = Bound->E;
  Result.Failures.push_back(
      {QualFailure::Kind::Restrict, Q->Name, Loc, Offending, nullptr});
  std::string SiteDesc = Deref ? "dereference of '" + printExpr(Site) + "'"
                               : "'" + printExpr(Site) + "'";
  warn(Loc, "restrict rule of qualifier '" + Q->Name + "' violated at " +
                SiteDesc + " (requires " + C.Where.str() + ")");
}

void QualChecker::applyRestrictsToDeref(const LValue *LV) {
  ++Result.Stats.DerefSites;
  for (const QualifierDef &Q : Quals.all()) {
    for (const Clause &C : Q.Restricts) {
      if (C.Pattern.K != ExprPattern::Kind::Deref)
        continue;
      Bindings B;
      if (!bindVar(C, /*Q=*/nullptr, C.Pattern.X, LV->Addr, B))
        continue;
      runRestrictClause(&Q, C, B, LV->Loc, LV->Addr, /*Deref=*/true);
    }
  }
}

void QualChecker::applyRestrictsToExpr(const Expr *E) {
  for (const QualifierDef &Q : Quals.all()) {
    for (const Clause &C : Q.Restricts) {
      if (C.Pattern.K == ExprPattern::Kind::Deref)
        continue; // Handled at dereference sites.
      Bindings B;
      if (!matchExprPattern(C, /*Q=*/nullptr, E, B))
        continue;
      runRestrictClause(&Q, C, B, E->Loc, E, /*Deref=*/false);
    }
  }
}

//===----------------------------------------------------------------------===//
// Casts
//===----------------------------------------------------------------------===//

void QualChecker::recordCast(const CastExpr *Cast) {
  if (std::find(RecordedCasts.begin(), RecordedCasts.end(), Cast) !=
      RecordedCasts.end())
    return;
  RecordedCasts.push_back(Cast);
  std::vector<std::string> ValueQuals;
  bool HasRefQual = false;
  for (const std::string &Name : Cast->Target->quals()) {
    const QualifierDef *Q = Quals.find(Name);
    if (!Q)
      continue;
    if (Q->IsRef) {
      HasRefQual = true;
      continue;
    }
    ValueQuals.push_back(Name);
  }
  if (HasRefQual)
    ++Result.Stats.CastsToRefQualified;
  if (ValueQuals.empty())
    return;
  ++Result.Stats.CastsToValueQualified;

  RuntimeCastCheck Check;
  Check.Cast = Cast;
  for (const std::string &Name : ValueQuals) {
    if (Options.ElideProvableCastChecks &&
        hasQualifier(Cast->Sub, Quals.find(Name))) {
      ++Result.Stats.ElidedCastChecks;
      continue;
    }
    Check.Quals.push_back(Name);
  }
  if (!Check.Quals.empty())
    Result.RuntimeChecks.push_back(std::move(Check));
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void QualChecker::scanLValue(const LValue *LV, bool IsWrite,
                             bool GrantDerefExemption) {
  (void)IsWrite;
  if (LV->isMem()) {
    applyRestrictsToDeref(LV);
    scanExpr(LV->Addr, /*InMemAddr=*/GrantDerefExemption);
  }
}

void QualChecker::scanExpr(const Expr *E, bool InMemAddr) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    break;
  case Expr::Kind::LValRead: {
    const auto *Read = cast<LValReadExpr>(E);
    if (!InMemAddr && Read->LV->Ty) {
      forEachRefQual(Quals, Read->LV->Ty, [&](const QualifierDef *Q) {
        if (!Q->DisallowRead)
          return;
        ++Result.Stats.DisallowFailures;
        Result.Failures.push_back({QualFailure::Kind::Disallow, Q->Name,
                                   E->Loc, E,
                                   Read->LV->isBareVar() ? Read->LV->Var
                                                         : nullptr});
        warn(E->Loc, "'" + printLValue(Read->LV) + "' has qualifier '" +
                         Q->Name +
                         "' and may not be referred to (disallow rule)");
      });
    }
    scanLValue(Read->LV, /*IsWrite=*/false);
    break;
  }
  case Expr::Kind::AddrOf: {
    const auto *Addr = cast<AddrOfExpr>(E);
    if (Addr->LV->Ty) {
      forEachRefQual(Quals, Addr->LV->Ty, [&](const QualifierDef *Q) {
        if (!Q->DisallowAddrOf)
          return;
        ++Result.Stats.DisallowFailures;
        Result.Failures.push_back({QualFailure::Kind::Disallow, Q->Name,
                                   E->Loc, E,
                                   Addr->LV->isBareVar() ? Addr->LV->Var
                                                         : nullptr});
        warn(E->Loc, "cannot take the address of '" + printLValue(Addr->LV) +
                         "': qualifier '" + Q->Name + "' disallows it");
      });
    }
    // Under '&' the deref exemption is revoked: &*p reproduces p's value,
    // which a disallow-read qualifier forbids.
    scanLValue(Addr->LV, /*IsWrite=*/false, /*GrantDerefExemption=*/false);
    break;
  }
  case Expr::Kind::Unary:
    scanExpr(cast<UnaryExpr>(E)->Sub, false);
    break;
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    // Pointer arithmetic forms part of a dereference address; reading a
    // disallow-read l-value is still permitted there.
    bool Propagate = InMemAddr && (Bin->Op == BinaryOp::Add ||
                                   Bin->Op == BinaryOp::Sub);
    scanExpr(Bin->LHS, Propagate);
    scanExpr(Bin->RHS, Propagate);
    break;
  }
  case Expr::Kind::Cast: {
    const auto *Cast_ = cast<CastExpr>(E);
    recordCast(Cast_);
    scanExpr(Cast_->Sub, InMemAddr);
    break;
  }
  case Expr::Kind::Call:
    // Calls appear only in direct-instruction positions; they are scanned
    // by scanCall.
    assert(false && "call in pure-expression position during scan");
    break;
  }
  applyRestrictsToExpr(E);
}

void QualChecker::scanCall(const CallExpr *Call) {
  for (const Expr *Arg : Call->Args)
    scanExpr(Arg, false);
  const FuncDecl *Callee = Call->Callee;
  if (!Callee)
    return;
  if (Callee->Variadic && !Callee->Params.empty() &&
      Callee->Params[0]->DeclaredTy->hasQual("untainted"))
    ++Result.Stats.FormatStringChecks;
  for (size_t I = 0; I < Call->Args.size() && I < Callee->Params.size(); ++I)
    checkAssignmentTo(
        Callee->Params[I]->DeclaredTy, Call->Args[I], Call->Args[I]->Loc,
        AssignSite{AssignSite::Kind::Argument, Callee->Name, nullptr, I + 1},
        Callee->Params[I]);
}

void QualChecker::checkStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      checkStmt(Sub);
    return;
  case Stmt::Kind::Decl: {
    VarDecl *Var = cast<DeclStmt>(S)->Var;
    if (!Var->Init)
      return;
    if (const CallExpr *Call = getDirectCall(Var->Init)) {
      scanCall(Call);
      if (const auto *Cast_ = dyn_cast<CastExpr>(Var->Init))
        recordCast(Cast_);
    } else {
      scanExpr(Var->Init, false);
    }
    checkAssignmentTo(Var->DeclaredTy, Var->Init, Var->Loc,
                      AssignSite{AssignSite::Kind::Init, Var->Name}, Var);
    return;
  }
  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    scanLValue(Assign->LHS, /*IsWrite=*/true);
    if (const CallExpr *Call = getDirectCall(Assign->RHS)) {
      scanCall(Call);
      if (const auto *Cast_ = dyn_cast<CastExpr>(Assign->RHS))
        recordCast(Cast_);
    } else {
      scanExpr(Assign->RHS, false);
    }
    if (Assign->LHS->Ty)
      checkAssignmentTo(
          Assign->LHS->Ty, Assign->RHS, Assign->Loc,
          AssignSite{AssignSite::Kind::Assign, {}, Assign->LHS},
          Assign->LHS->isBareVar() ? Assign->LHS->Var : nullptr);
    return;
  }
  case Stmt::Kind::CallStmt:
    scanCall(cast<CallStmt>(S)->Call);
    return;
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    scanExpr(If->Cond, false);
    if (Options.FlowSensitiveNarrowing) {
      std::vector<std::pair<const VarDecl *, std::string>> ThenNar, ElseNar;
      narrowingsFrom(If->Cond, /*Sense=*/true, ThenNar);
      narrowingsFrom(If->Cond, /*Sense=*/false, ElseNar);
      checkNarrowed(If->Then, ThenNar);
      checkNarrowed(If->Else, ElseNar);
      return;
    }
    checkStmt(If->Then);
    checkStmt(If->Else);
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    scanExpr(While->Cond, false);
    if (Options.FlowSensitiveNarrowing) {
      std::vector<std::pair<const VarDecl *, std::string>> BodyNar;
      narrowingsFrom(While->Cond, /*Sense=*/true, BodyNar);
      checkNarrowed(While->Body, BodyNar);
      return;
    }
    checkStmt(While->Body);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    checkStmt(For->Init);
    if (For->Cond)
      scanExpr(For->Cond, false);
    checkStmt(For->Step);
    if (Options.FlowSensitiveNarrowing && For->Cond) {
      std::vector<std::pair<const VarDecl *, std::string>> BodyNar;
      narrowingsFrom(For->Cond, /*Sense=*/true, BodyNar);
      // The step runs inside the loop too; treat it as part of the body
      // for the conservative kill.
      checkNarrowed(For->Body, BodyNar);
      return;
    }
    checkStmt(For->Body);
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (!Ret->Value)
      return;
    scanExpr(Ret->Value, false);
    assert(CurrentFn && "return outside function");
    if (!CurrentFn->RetTy->isVoid())
      checkAssignmentTo(CurrentFn->RetTy, Ret->Value, Ret->Loc,
                        AssignSite{AssignSite::Kind::Return, CurrentFn->Name});
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Flow-sensitive narrowing (section 8 future work, opt-in)
//===----------------------------------------------------------------------===//

bool QualChecker::comparisonImpliesInvariant(const QualifierDef *Q,
                                             BinaryOp Op, bool IsNull,
                                             int64_t C) {
  if (!Q || Q->IsRef || !Q->Invariant)
    return false;
  const qual::InvPred &Inv = *Q->Invariant;
  if (Inv.K != qual::InvPred::Kind::Compare ||
      Inv.A.K != qual::InvTerm::Kind::ValueOf)
    return false;
  // Invariant compares the value against NULL.
  if (Inv.B.K == qual::InvTerm::Kind::Null)
    return IsNull && Inv.CmpOp == BinaryOp::Ne && Op == BinaryOp::Ne;
  if (Inv.B.K != qual::InvTerm::Kind::Int || IsNull)
    return false;
  int64_t T = Inv.B.Int;
  // The condition constrains the variable to a range; does the range lie
  // within the invariant's?
  bool HasLo = false, HasHi = false;
  int64_t Lo = 0, Hi = 0; // Inclusive integer bounds.
  switch (Op) {
  case BinaryOp::Eq:
    HasLo = HasHi = true;
    Lo = Hi = C;
    break;
  case BinaryOp::Gt:
    HasLo = true;
    Lo = C + 1;
    break;
  case BinaryOp::Ge:
    HasLo = true;
    Lo = C;
    break;
  case BinaryOp::Lt:
    HasHi = true;
    Hi = C - 1;
    break;
  case BinaryOp::Le:
    HasHi = true;
    Hi = C;
    break;
  case BinaryOp::Ne:
    // v != C only implies v != T when C == T.
    return Inv.CmpOp == BinaryOp::Ne && C == T;
  default:
    return false;
  }
  switch (Inv.CmpOp) {
  case BinaryOp::Gt:
    return HasLo && Lo > T;
  case BinaryOp::Ge:
    return HasLo && Lo >= T;
  case BinaryOp::Lt:
    return HasHi && Hi < T;
  case BinaryOp::Le:
    return HasHi && Hi <= T;
  case BinaryOp::Ne:
    return (HasLo && Lo > T) || (HasHi && Hi < T);
  case BinaryOp::Eq:
    return HasLo && HasHi && Lo == Hi && Lo == T;
  default:
    return false;
  }
}

void QualChecker::narrowingsFrom(
    const Expr *Cond, bool Sense,
    std::vector<std::pair<const VarDecl *, std::string>> &Out) {
  if (!Cond)
    return;
  switch (Cond->getKind()) {
  case Expr::Kind::Unary: {
    const auto *Un = cast<UnaryExpr>(Cond);
    if (Un->Op == UnaryOp::Not)
      narrowingsFrom(Un->Sub, !Sense, Out);
    return;
  }
  case Expr::Kind::LValRead: {
    // Truthiness of a pointer: `if (p)` means p != NULL.
    const auto *Read = cast<LValReadExpr>(Cond);
    if (!Sense || !Read->LV->isBareVar() || !Cond->Ty ||
        !Cond->Ty->isPointer())
      return;
    for (const QualifierDef &Q : Quals.all())
      if (comparisonImpliesInvariant(&Q, BinaryOp::Ne, /*IsNull=*/true, 0))
        Out.emplace_back(Read->LV->Var, Q.Name);
    return;
  }
  case Expr::Kind::Binary:
    break;
  default:
    return;
  }

  const auto *Bin = cast<BinaryExpr>(Cond);
  if (Bin->Op == BinaryOp::LAnd) {
    // The true branch of a && b gives both; the false branch neither.
    if (Sense) {
      narrowingsFrom(Bin->LHS, true, Out);
      narrowingsFrom(Bin->RHS, true, Out);
    }
    return;
  }
  if (Bin->Op == BinaryOp::LOr) {
    // The false branch of a || b gives the negation of both.
    if (!Sense) {
      narrowingsFrom(Bin->LHS, false, Out);
      narrowingsFrom(Bin->RHS, false, Out);
    }
    return;
  }

  // A comparison between a bare variable and a constant.
  const Expr *VarSide = nullptr;
  const Expr *ConstSide = nullptr;
  BinaryOp Op = Bin->Op;
  auto IsConst = [](const Expr *E) {
    return isa<IntConstExpr>(E) || isa<NullConstExpr>(E);
  };
  auto IsBareRead = [](const Expr *E) {
    const auto *Read = dyn_cast<LValReadExpr>(E);
    return Read && Read->LV->isBareVar();
  };
  if (IsBareRead(Bin->LHS) && IsConst(Bin->RHS)) {
    VarSide = Bin->LHS;
    ConstSide = Bin->RHS;
  } else if (IsBareRead(Bin->RHS) && IsConst(Bin->LHS)) {
    VarSide = Bin->RHS;
    ConstSide = Bin->LHS;
    // Mirror the comparison: C op v becomes v op' C.
    switch (Op) {
    case BinaryOp::Lt:
      Op = BinaryOp::Gt;
      break;
    case BinaryOp::Le:
      Op = BinaryOp::Ge;
      break;
    case BinaryOp::Gt:
      Op = BinaryOp::Lt;
      break;
    case BinaryOp::Ge:
      Op = BinaryOp::Le;
      break;
    default:
      break;
    }
  } else {
    return;
  }
  if (!Sense) {
    switch (Op) {
    case BinaryOp::Eq:
      Op = BinaryOp::Ne;
      break;
    case BinaryOp::Ne:
      Op = BinaryOp::Eq;
      break;
    case BinaryOp::Lt:
      Op = BinaryOp::Ge;
      break;
    case BinaryOp::Le:
      Op = BinaryOp::Gt;
      break;
    case BinaryOp::Gt:
      Op = BinaryOp::Le;
      break;
    case BinaryOp::Ge:
      Op = BinaryOp::Lt;
      break;
    default:
      return;
    }
  }
  bool IsNull = isa<NullConstExpr>(ConstSide);
  int64_t C = IsNull ? 0 : cast<IntConstExpr>(ConstSide)->Value;
  const VarDecl *Var = cast<LValReadExpr>(VarSide)->LV->Var;
  for (const QualifierDef &Q : Quals.all())
    if (comparisonImpliesInvariant(&Q, Op, IsNull, C))
      Out.emplace_back(Var, Q.Name);
}

namespace {

/// Collects variables possibly modified by an expression's evaluation
/// context: address-taken bare variables (which a callee could write).
void collectKilledInExpr(const Expr *E, std::set<const VarDecl *> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::AddrOf: {
    const auto *Addr = cast<AddrOfExpr>(E);
    if (Addr->LV->isBareVar())
      Out.insert(Addr->LV->Var);
    if (Addr->LV->isMem())
      collectKilledInExpr(Addr->LV->Addr, Out);
    return;
  }
  case Expr::Kind::LValRead:
    if (cast<LValReadExpr>(E)->LV->isMem())
      collectKilledInExpr(cast<LValReadExpr>(E)->LV->Addr, Out);
    return;
  case Expr::Kind::Unary:
    collectKilledInExpr(cast<UnaryExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Binary:
    collectKilledInExpr(cast<BinaryExpr>(E)->LHS, Out);
    collectKilledInExpr(cast<BinaryExpr>(E)->RHS, Out);
    return;
  case Expr::Kind::Cast:
    collectKilledInExpr(cast<CastExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Call:
    for (const Expr *Arg : cast<CallExpr>(E)->Args)
      collectKilledInExpr(Arg, Out);
    return;
  default:
    return;
  }
}

} // namespace

void QualChecker::collectAssignedVars(const Stmt *S,
                                      std::set<const VarDecl *> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      collectAssignedVars(Sub, Out);
    return;
  case Stmt::Kind::Decl:
    if (const Expr *Init = cast<DeclStmt>(S)->Var->Init)
      collectKilledInExpr(Init, Out);
    return;
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    if (Assign->LHS->isBareVar())
      Out.insert(Assign->LHS->Var);
    else if (Assign->LHS->isMem())
      collectKilledInExpr(Assign->LHS->Addr, Out);
    collectKilledInExpr(Assign->RHS, Out);
    return;
  }
  case Stmt::Kind::CallStmt:
    collectKilledInExpr(cast<CallStmt>(S)->Call, Out);
    return;
  case Stmt::Kind::If:
    collectKilledInExpr(cast<IfStmt>(S)->Cond, Out);
    collectAssignedVars(cast<IfStmt>(S)->Then, Out);
    collectAssignedVars(cast<IfStmt>(S)->Else, Out);
    return;
  case Stmt::Kind::While:
    collectKilledInExpr(cast<WhileStmt>(S)->Cond, Out);
    collectAssignedVars(cast<WhileStmt>(S)->Body, Out);
    return;
  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    collectAssignedVars(For->Init, Out);
    if (For->Cond)
      collectKilledInExpr(For->Cond, Out);
    collectAssignedVars(For->Step, Out);
    collectAssignedVars(For->Body, Out);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->Value)
      collectKilledInExpr(V, Out);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void QualChecker::checkNarrowed(
    Stmt *Body,
    const std::vector<std::pair<const VarDecl *, std::string>> &Narrowings) {
  if (!Body)
    return;
  if (Narrowings.empty()) {
    checkStmt(Body);
    return;
  }
  std::set<const VarDecl *> Killed;
  collectAssignedVars(Body, Killed);
  std::map<const VarDecl *, std::set<std::string>> Saved = Narrowed;
  for (const auto &[Var, Qual] : Narrowings)
    if (!Killed.count(Var))
      Narrowed[Var].insert(Qual);
  checkStmt(Body);
  Narrowed = std::move(Saved);
}


void QualChecker::checkFunction(FuncDecl *Fn) {
  trace::Span S("check.unit",
                trace::Tracer::enabled() ? std::string(Fn->Name) : std::string());
  beginUnit();
  CurrentFn = Fn;
  checkStmt(Fn->Body);
  CurrentFn = nullptr;
}

void QualChecker::beginUnit() {
  RecordedCasts.clear();
  Memo.clear();
}

CheckResult QualChecker::takeResult() {
  CheckResult Out = std::move(Result);
  Result = CheckResult();
  return Out;
}

void QualChecker::checkGlobals() {
  trace::Span S("check.unit", trace::Tracer::enabled() ? "<globals>"
                                                       : std::string());
  beginUnit();
  for (VarDecl *G : Prog->Globals) {
    if (!G->Init)
      continue;
    scanExpr(G->Init, false);
    checkAssignmentTo(G->DeclaredTy, G->Init, G->Loc,
                      AssignSite{AssignSite::Kind::GlobalInit, G->Name}, G);
  }
}

CheckResult QualChecker::runGlobals() {
  checkGlobals();
  return takeResult();
}

CheckResult QualChecker::runFunction(cminus::FuncDecl *Fn) {
  checkFunction(Fn);
  return takeResult();
}

CheckResult QualChecker::runUnit(cminus::Program &P, DiagnosticEngine &D,
                                 cminus::FuncDecl *Fn) {
  Prog = &P;
  Diags = &D;
  return Fn ? runFunction(Fn) : runGlobals();
}

CheckResult QualChecker::run() {
  checkGlobals();
  for (FuncDecl *Fn : Prog->Functions)
    if (Fn->isDefinition())
      checkFunction(Fn);
  return takeResult();
}

//===----------------------------------------------------------------------===//
// Convenience pipeline
//===----------------------------------------------------------------------===//

CheckResult stq::checker::checkSource(const std::string &Source,
                                      const qual::QualifierSet &Quals,
                                      DiagnosticEngine &Diags,
                                      std::unique_ptr<Program> &ProgOut,
                                      CheckerOptions Options) {
  ProgOut = parseProgram(Source, Quals.names(), Diags);
  CheckResult Empty;
  if (Diags.hasErrors())
    return Empty;
  if (!runSema(*ProgOut, Quals.refNames(), Diags))
    return Empty;
  if (!lowerProgram(*ProgOut, Diags))
    return Empty;
  if (!verifyLoweredProgram(*ProgOut, Diags))
    return Empty;
  QualChecker Checker(*ProgOut, Quals, Diags, Options);
  return Checker.run();
}
