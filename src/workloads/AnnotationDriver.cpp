//===- AnnotationDriver.cpp -----------------------------------------------===//

#include "workloads/AnnotationDriver.h"

#include "checker/Checker.h"
#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"
#include "qual/Builtins.h"

#include <chrono>
#include <functional>
#include <map>
#include <set>

using namespace stq;
using namespace stq::workloads;
using namespace stq::cminus;
using checker::CheckerOptions;
using checker::CheckResult;
using checker::QualChecker;
using checker::QualFailure;

namespace {

/// What an offending expression can be annotated at: a variable's declared
/// type or a struct field's type.
struct AnnotTarget {
  enum class Kind { None, Var, Field };
  Kind K = Kind::None;
  VarDecl *Var = nullptr;
  StructDef *Def = nullptr;
  std::string_view Field;

  bool valid() const { return K != Kind::None; }
  bool operator<(const AnnotTarget &O) const {
    return std::tie(K, Var, Def, Field) < std::tie(O.K, O.Var, O.Def,
                                                   O.Field);
  }
};

/// Resolves the struct definition owning the last field of \p LV.
StructDef *structOfLastField(const Program &Prog, const LValue *LV) {
  TypePtr Cur = nullptr;
  if (LV->isVar())
    Cur = LV->Var->DeclaredTy;
  else if (LV->Addr->Ty && Type::withoutQuals(LV->Addr->Ty)->isPointer())
    Cur = Type::withoutQuals(LV->Addr->Ty)->pointee();
  if (!Cur)
    return nullptr;
  StructDef *Def = nullptr;
  for (size_t I = 0; I < LV->Fields.size(); ++I) {
    TypePtr Bare = Type::withoutQuals(Cur);
    if (!Bare->isStruct())
      return nullptr;
    Def = Prog.findStruct(Bare->structName());
    if (!Def)
      return nullptr;
    const StructDef::Field *F = Def->findField(LV->Fields[I]);
    if (!F)
      return nullptr;
    Cur = F->Ty;
  }
  return Def;
}

/// Walks pointer arithmetic and casts to the annotatable root of \p E.
AnnotTarget rootOf(const Program &Prog, const Expr *E) {
  AnnotTarget None;
  if (!E)
    return None;
  switch (E->getKind()) {
  case Expr::Kind::LValRead: {
    const LValue *LV = cast<LValReadExpr>(E)->LV;
    if (LV->isBareVar())
      return {AnnotTarget::Kind::Var, LV->Var, nullptr, ""};
    if (!LV->Fields.empty()) {
      StructDef *Def = structOfLastField(Prog, LV);
      if (Def)
        return {AnnotTarget::Kind::Field, nullptr, Def, LV->Fields.back()};
    }
    return None;
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    if (Bin->Op != BinaryOp::Add && Bin->Op != BinaryOp::Sub)
      return None;
    if (Bin->LHS->Ty && Bin->LHS->Ty->isPointer())
      return rootOf(Prog, Bin->LHS);
    if (Bin->RHS->Ty && Bin->RHS->Ty->isPointer())
      return rootOf(Prog, Bin->RHS);
    return None;
  }
  case Expr::Kind::Cast:
    return rootOf(Prog, cast<CastExpr>(E)->Sub);
  default:
    return None;
  }
}

/// Collects targets that are ever assigned NULL (not annotatable with
/// nonnull) and targets whose every assignment is a string literal
/// (annotatable with untainted).
class TargetFacts {
public:
  TargetFacts(const Program &Prog) : Prog(Prog) {
    for (const VarDecl *G : Prog.Globals)
      if (G->Init)
        record(targetOfVar(G), G->Init);
    for (const FuncDecl *Fn : Prog.Functions)
      if (Fn->isDefinition())
        walk(Fn->Body);
  }

  bool assignedNull(const AnnotTarget &T) const {
    return NullAssigned.count(T) != 0;
  }
  bool literalOnly(const AnnotTarget &T) const {
    // Requires at least one (literal) assignment: targets never assigned
    // in the program carry external data of unknown provenance.
    return LiteralAssigned.count(T) != 0 &&
           NonLiteralAssigned.count(T) == 0;
  }

private:
  static AnnotTarget targetOfVar(const VarDecl *Var) {
    return {AnnotTarget::Kind::Var, const_cast<VarDecl *>(Var), nullptr,
            ""};
  }

  void record(AnnotTarget T, const Expr *RHS) {
    if (!T.valid())
      return;
    if (isa<NullConstExpr>(RHS))
      NullAssigned.insert(T);
    if (isa<StrConstExpr>(RHS))
      LiteralAssigned.insert(T);
    else
      NonLiteralAssigned.insert(T);
  }

  AnnotTarget targetOfLValue(const LValue *LV) {
    if (LV->isBareVar())
      return targetOfVar(LV->Var);
    if (!LV->Fields.empty()) {
      StructDef *Def = structOfLastField(Prog, LV);
      if (Def)
        return {AnnotTarget::Kind::Field, nullptr, Def, LV->Fields.back()};
    }
    return {};
  }

  void walk(const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
        walk(Sub);
      return;
    case Stmt::Kind::Decl: {
      const VarDecl *Var = cast<DeclStmt>(S)->Var;
      if (Var->Init)
        record(targetOfVar(Var), Var->Init);
      return;
    }
    case Stmt::Kind::Assign: {
      const auto *Assign = cast<AssignStmt>(S);
      record(targetOfLValue(Assign->LHS), Assign->RHS);
      return;
    }
    case Stmt::Kind::If:
      walk(cast<IfStmt>(S)->Then);
      walk(cast<IfStmt>(S)->Else);
      return;
    case Stmt::Kind::While:
      walk(cast<WhileStmt>(S)->Body);
      return;
    case Stmt::Kind::For: {
      const auto *For = cast<ForStmt>(S);
      walk(For->Init);
      walk(For->Step);
      walk(For->Body);
      return;
    }
    default:
      return;
    }
  }

  const Program &Prog;
  std::set<AnnotTarget> NullAssigned;
  std::set<AnnotTarget> LiteralAssigned;
  std::set<AnnotTarget> NonLiteralAssigned;
};

/// Applies the qualifier to a target's declared type.
void annotate(const AnnotTarget &T, const std::string &Qual) {
  if (T.K == AnnotTarget::Kind::Var) {
    T.Var->DeclaredTy = Type::withQual(T.Var->DeclaredTy, Qual);
    return;
  }
  for (StructDef::Field &F : T.Def->Fields)
    if (F.Name == T.Field)
      F.Ty = Type::withQual(F.Ty, Qual);
}

/// Shared fixpoint engine for the annotation experiments.
struct FixpointOutcome {
  unsigned Annotations = 0;
  unsigned Casts = 0;
  unsigned Iterations = 0;
  unsigned InitialErrors = 0;
  CheckResult Final;
};

/// Runs the checker repeatedly, annotating or assuming casts per the
/// policy, until no new action is possible.
///
/// \param Qual the qualifier being propagated.
/// \param CastFallback if true, unannotatable offending expressions get an
///        assumed cast (nonnull policy); if false they remain errors
///        (untainted policy: residual errors are real bugs).
/// \param AnnotatableIf decides whether a target may be annotated.
FixpointOutcome runFixpoint(
    Program &Prog, const qual::QualifierSet &Quals, const std::string &Qual,
    bool CastFallback,
    const std::function<bool(const AnnotTarget &)> &AnnotatableIf,
    bool FlowSensitive = false) {
  FixpointOutcome Out;
  std::set<AnnotTarget> Annotated;
  std::map<unsigned, std::vector<std::string>> AssumedCasts;
  DiagnosticEngine ScratchDiags;

  for (unsigned Iter = 0; Iter < 64; ++Iter) {
    ++Out.Iterations;
    ScratchDiags.clear();
    Prog.Ctx.resetComputedTypes();
    runSema(Prog, Quals.refNames(), ScratchDiags);
    CheckerOptions Options;
    Options.AssumedCasts = &AssumedCasts;
    Options.FlowSensitiveNarrowing = FlowSensitive;
    QualChecker Checker(Prog, Quals, ScratchDiags, Options);
    CheckResult Result = Checker.run();
    if (Iter == 0)
      Out.InitialErrors = Result.QualErrors;

    bool Changed = false;
    for (const QualFailure &F : Result.Failures) {
      if (F.Qual != Qual)
        continue;
      AnnotTarget T = rootOf(Prog, F.Offending);
      if (T.valid() && !Annotated.count(T) && AnnotatableIf(T)) {
        annotate(T, Qual);
        Annotated.insert(T);
        Changed = true;
        continue;
      }
      if (T.valid() && Annotated.count(T))
        continue; // Already handled; the re-run will see it.
      if (CastFallback && F.Offending) {
        auto &Assumed = AssumedCasts[F.Offending->Id];
        bool Already = false;
        for (const std::string &Q : Assumed)
          Already = Already || Q == Qual;
        if (!Already) {
          Assumed.push_back(Qual);
          Changed = true;
        }
      }
    }
    Out.Final = std::move(Result);
    if (!Changed)
      break;
  }
  Out.Annotations = static_cast<unsigned>(Annotated.size());
  Out.Casts = static_cast<unsigned>(AssumedCasts.size());
  return Out;
}

/// Parses and prepares a workload with the given builtin qualifiers.
std::unique_ptr<Program> prepare(const GeneratedWorkload &W,
                                 const std::vector<std::string> &QualNames,
                                 qual::QualifierSet &Quals,
                                 DiagnosticEngine &Diags) {
  if (!qual::loadBuiltinQualifiers(QualNames, Quals, Diags))
    return nullptr;
  auto Prog = parseProgram(W.Source, Quals.names(), Diags);
  if (Diags.hasErrors())
    return nullptr;
  if (!runSema(*Prog, Quals.refNames(), Diags))
    return nullptr;
  if (!lowerProgram(*Prog, Diags))
    return nullptr;
  return Prog;
}

} // namespace

//===----------------------------------------------------------------------===//
// Experiments
//===----------------------------------------------------------------------===//

Table1Row stq::workloads::runNonnullExperiment(const GeneratedWorkload &W,
                                                bool FlowSensitive) {
  auto Start = std::chrono::steady_clock::now();
  Table1Row Row;
  Row.Lines = W.Lines;

  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  auto Prog = prepare(W, {"nonnull"}, Quals, Diags);
  if (!Prog)
    return Row;

  TargetFacts Facts(*Prog);
  FixpointOutcome Out = runFixpoint(
      *Prog, Quals, "nonnull", /*CastFallback=*/true,
      [&](const AnnotTarget &T) {
        // A target may be annotated nonnull unless it is ever assigned
        // NULL (the lazily-built tables).
        return !Facts.assignedNull(T);
      },
      FlowSensitive);

  Row.Dereferences = Out.Final.Stats.DerefSites;
  Row.Annotations = Out.Annotations;
  Row.Casts = Out.Casts;
  Row.Errors = Out.Final.QualErrors;
  Row.Iterations = Out.Iterations;
  Row.InitialErrors = Out.InitialErrors;
  Row.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Row;
}

Table2Row stq::workloads::runUntaintedExperiment(const GeneratedWorkload &W) {
  auto Start = std::chrono::steady_clock::now();
  Table2Row Row;
  Row.Lines = W.Lines;
  Row.PrintfCalls = W.PrintfCalls;

  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  auto Prog = prepare(W, {"tainted", "untainted"}, Quals, Diags);
  if (!Prog)
    return Row;

  TargetFacts Facts(*Prog);
  FixpointOutcome Out = runFixpoint(
      *Prog, Quals, "untainted", /*CastFallback=*/false,
      [&](const AnnotTarget &T) {
        // Format parameters may be annotated: their call sites are then
        // checked. Locals/globals only if every assignment is a literal.
        if (T.K == AnnotTarget::Kind::Var && T.Var->IsParam)
          return true;
        return Facts.literalOnly(T);
      });

  Row.Annotations = Out.Annotations;
  Row.Casts = Out.Casts;
  Row.Errors = Out.Final.QualErrors;
  Row.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Row;
}

UniqueRow stq::workloads::runUniqueExperiment(const GeneratedWorkload &W) {
  auto Start = std::chrono::steady_clock::now();
  UniqueRow Row;
  Row.RefSites = W.UniqueRefSites;

  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  auto Prog = prepare(W, {"unique"}, Quals, Diags);
  if (!Prog)
    return Row;

  QualChecker Checker(*Prog, Quals, Diags, {});
  CheckResult Result = Checker.run();
  Row.Violations = Result.QualErrors;
  Row.Casts = Result.Stats.CastsToRefQualified;
  Row.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Row;
}
