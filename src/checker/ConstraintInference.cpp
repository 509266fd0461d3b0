//===- ConstraintInference.cpp --------------------------------------------===//

#include "checker/ConstraintInference.h"

#include "checker/ConstraintGraph.h"
#include "cminus/Lowering.h"
#include "prover/Formula.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <tuple>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;
using namespace stq::qual;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *stq::checker::scopeName(InferenceScope S) {
  switch (S) {
  case InferenceScope::Program:
    return "program";
  case InferenceScope::LocalsOnly:
    return "locals";
  }
  return "program";
}

bool stq::checker::parseScopeName(const std::string &Name,
                                  InferenceScope &Out) {
  if (Name == "program") {
    Out = InferenceScope::Program;
    return true;
  }
  if (Name == "locals") {
    Out = InferenceScope::LocalsOnly;
    return true;
  }
  return false;
}

unsigned InferenceReport::totalSuggested() const {
  unsigned N = 0;
  for (const InferenceSuggestion &S : Suggestions)
    for (const SuggestedQual &Q : S.Quals)
      if (!Q.Implied)
        ++N;
  return N;
}

unsigned InferenceReport::totalInferred() const {
  unsigned N = 0;
  for (const InferenceSuggestion &S : Suggestions)
    N += static_cast<unsigned>(S.Quals.size());
  return N;
}

//===----------------------------------------------------------------------===//
// Variable provenance (unit / function / kind), for deterministic keys
//===----------------------------------------------------------------------===//

namespace {

/// Candidate assumptions per variable, in the exact shape
/// CheckerOptions::AssumedVarQuals consumes.
using Assumptions = std::map<const VarDecl *, std::set<std::string>>;

struct VarInfo {
  unsigned Unit = 0;
  std::string Function;
  const char *Kind = "global";
};

std::map<const VarDecl *, VarInfo> buildVarInfo(const Program &Prog) {
  std::map<const VarDecl *, VarInfo> Info;
  for (const VarDecl *G : Prog.Globals)
    Info[G] = {0, "", "global"};
  for (unsigned I = 0; I < Prog.Functions.size(); ++I) {
    const FuncDecl *Fn = Prog.Functions[I];
    UnitFlows Unit;
    collectUnitFlows(Prog, I + 1, Unit);
    for (const VarDecl *V : Unit.Vars)
      Info[V] = {I + 1, std::string(Fn->Name), V->IsParam ? "parameter" : "local"};
  }
  return Info;
}

bool suggestionKeyLess(const InferenceSuggestion &A,
                       const InferenceSuggestion &B) {
  return std::tie(A.Unit, A.Function, A.Var, A.Loc.Line, A.Loc.Col) <
         std::tie(B.Unit, B.Function, B.Var, B.Loc.Line, B.Loc.Col);
}

//===----------------------------------------------------------------------===//
// Prover-discharged implication between value qualifiers
//===----------------------------------------------------------------------===//

/// Translates a *simple* value invariant — Compare/And/Or/Implies over
/// value(E), integer literals, and NULL — with value(E) mapped to \p V.
/// Returns nullptr for anything touching state (Deref, LocationOf,
/// IsHeapLoc, Forall, quantified variables): those qualifiers are outside
/// the pos/nonzero refinement class.
prover::FormulaPtr translateSimpleInv(const InvPred &Inv,
                                      prover::TermArena &A,
                                      prover::TermId V) {
  using prover::FormulaPtr;
  auto TermOf = [&](const InvTerm &T) -> std::optional<prover::TermId> {
    switch (T.K) {
    case InvTerm::Kind::ValueOf:
      return V;
    case InvTerm::Kind::Int:
      return A.intConst(T.Int);
    case InvTerm::Kind::Null:
      return A.nullTerm();
    default:
      return std::nullopt;
    }
  };
  switch (Inv.K) {
  case InvPred::Kind::Compare: {
    auto L = TermOf(Inv.A), R = TermOf(Inv.B);
    if (!L || !R)
      return nullptr;
    switch (Inv.CmpOp) {
    case BinaryOp::Eq:
      return prover::fEq(*L, *R);
    case BinaryOp::Ne:
      return prover::fNe(*L, *R);
    case BinaryOp::Lt:
      return prover::fLt(*L, *R);
    case BinaryOp::Le:
      return prover::fLe(*L, *R);
    case BinaryOp::Gt:
      return prover::fGt(*L, *R);
    case BinaryOp::Ge:
      return prover::fGe(*L, *R);
    default:
      return nullptr;
    }
  }
  case InvPred::Kind::And: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fAnd({L, R}) : nullptr;
  }
  case InvPred::Kind::Or: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fOr({L, R}) : nullptr;
  }
  case InvPred::Kind::Implies: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fImplies(L, R) : nullptr;
  }
  case InvPred::Kind::IsHeapLoc:
  case InvPred::Kind::Forall:
    return nullptr;
  }
  return nullptr;
}

/// Does \p Q carry a case clause `X, where P(X)` — i.e. the checker can
/// re-derive Q for any expression already known to satisfy \p P? This is
/// the syntactic half of "P implies Q": without it, demoting Q from an
/// annotation would lose derivability at use sites.
bool hasDerivationClause(const QualifierDef &Q, const std::string &P) {
  for (const Clause &C : Q.Cases)
    if (C.Pattern.K == ExprPattern::Kind::Var &&
        C.Where.K == Pred::Kind::QualCheck && C.Where.Qual == P &&
        C.Where.Var == C.Pattern.X)
      return true;
  return false;
}

/// Discharges implication queries between value-qualifier invariants on
/// the incremental prover, memoizing through the shared ProverCache.
class ImplicationOracle {
public:
  ImplicationOracle(const QualifierSet &Quals,
                    const ConstraintInferenceOptions &Options,
                    InferenceStats &Stats)
      : Quals(Quals), Options(Options), Stats(Stats) {}

  /// True iff \p P strictly entitles dropping the annotation \p Q: Q has a
  /// derivation clause from P and the prover shows P's invariant implies
  /// Q's for an arbitrary value.
  bool implies(const std::string &P, const std::string &Q) {
    auto Key = std::make_pair(P, Q);
    auto Found = Memo.find(Key);
    if (Found != Memo.end())
      return Found->second;
    bool Result = compute(P, Q);
    Memo.emplace(Key, Result);
    return Result;
  }

private:
  bool compute(const std::string &PName, const std::string &QName) {
    const QualifierDef *P = Quals.find(PName);
    const QualifierDef *Q = Quals.find(QName);
    if (!P || !Q || !P->Invariant || !Q->Invariant)
      return false;
    if (!hasDerivationClause(*Q, PName))
      return false;

    prover::Prover Session(Options.Prover);
    prover::TermId V = Session.freshConst("iv");
    prover::FormulaPtr Hyp =
        translateSimpleInv(*P->Invariant, Session.arena(), V);
    prover::FormulaPtr Goal =
        translateSimpleInv(*Q->Invariant, Session.arena(), V);
    if (!Hyp || !Goal)
      return false; // Outside the simple value-invariant class.
    Session.addHypothesis(Hyp);

    ++Stats.ProverQueries;
    std::string CacheKey;
    if (Options.Cache) {
      CacheKey = prover::canonicalTaskKey(Session.arena(), Session.inputs(),
                                          Goal);
      if (auto Hit = Options.Cache->lookup(CacheKey)) {
        ++Stats.ProverCacheHits;
        return Hit->Result == prover::ProofResult::Proved;
      }
    }
    prover::ProofResult R = Session.prove(Goal);
    if (Options.Cache)
      Options.Cache->insert(CacheKey, R, Session.stats());
    return R == prover::ProofResult::Proved;
  }

  const QualifierSet &Quals;
  const ConstraintInferenceOptions &Options;
  InferenceStats &Stats;
  std::map<std::pair<std::string, std::string>, bool> Memo;
};

/// Re-keys the solved assumption map into the deterministic report shape,
/// runs prover minimization, and applies the suggestion budget.
void buildSuggestions(const Program &Prog, const QualifierSet &Quals,
                      const ConstraintInferenceOptions &Options,
                      const Assumptions &InferredByVar,
                      InferenceReport &Report) {
  std::map<const VarDecl *, VarInfo> Info = buildVarInfo(Prog);
  ImplicationOracle Oracle(Quals, Options, Report.Stats);

  for (const auto &[Var, Set] : InferredByVar) {
    // Only qualifiers not already declared are suggestions.
    std::set<std::string> Fresh;
    for (const std::string &Q : Set)
      if (!Var->DeclaredTy->hasQual(Q))
        Fresh.insert(Q);
    if (Fresh.empty())
      continue;

    InferenceSuggestion S;
    auto FoundInfo = Info.find(Var);
    if (FoundInfo != Info.end()) {
      S.Unit = FoundInfo->second.Unit;
      S.Function = FoundInfo->second.Function;
      S.Kind = FoundInfo->second.Kind;
    } else {
      S.Kind = Var->IsGlobal ? "global" : (Var->IsParam ? "parameter"
                                                        : "local");
    }
    S.Var = Var->Name;
    S.Loc = Var->Loc;
    S.Decl = Var;

    // Demoters are the fresh set plus the qualifiers already declared on
    // the variable: a declared P implying Q makes suggesting Q pure noise,
    // and counting it keeps apply idempotent (re-inferring an annotated
    // program suggests nothing new).
    std::set<std::string> Declared;
    for (const std::string &Q : Var->DeclaredTy->quals())
      Declared.insert(Q);
    std::set<std::string> Demoters = Fresh;
    Demoters.insert(Declared.begin(), Declared.end());

    for (const std::string &Q : Fresh) {
      SuggestedQual SQ;
      SQ.Qual = Q;
      SQ.Provenance = "solver";
      // Q is demoted when some other inferred qualifier P strictly implies
      // it (or implies it mutually and wins the lexicographic tie). The
      // implication is pairwise, but demotions compose: a demoted P still
      // derives Q at check time through the clause chain, so Q need not be
      // re-promoted when P is demoted too.
      for (const std::string &P : Demoters) {
        if (P == Q || !Oracle.implies(P, Q))
          continue;
        // A mutual implication inside the fresh set is an equivalence
        // class: keep the lexicographically smallest member. A declared
        // demoter always wins — it stays on the type regardless.
        if (!Declared.count(P) && Oracle.implies(Q, P) && P >= Q)
          continue;
        SQ.Implied = true;
        SQ.Provenance = "implied:" + P;
        break; // Demoters is sorted: the first P is the smallest.
      }
      S.Quals.push_back(std::move(SQ));
    }
    Report.Suggestions.push_back(std::move(S));
  }

  std::sort(Report.Suggestions.begin(), Report.Suggestions.end(),
            suggestionKeyLess);

  if (Options.MaxSuggestions > 0 &&
      Report.Suggestions.size() > Options.MaxSuggestions) {
    Report.Stats.Truncated = static_cast<unsigned>(Report.Suggestions.size() -
                                                   Options.MaxSuggestions);
    Report.Suggestions.resize(Options.MaxSuggestions);
  }

  Report.Stats.Variables = static_cast<unsigned>(Report.Suggestions.size());
  for (const InferenceSuggestion &S : Report.Suggestions)
    for (const SuggestedQual &Q : S.Quals)
      ++(Q.Implied ? Report.Stats.Implied : Report.Stats.Suggested);
}

//===----------------------------------------------------------------------===//
// Round-based parallel worklist solve
//===----------------------------------------------------------------------===//

/// Solves the constraints \p Edges over the seeded candidate atoms in
/// \p Assumed; on return \p Assumed holds the greatest fixpoint. Each
/// round's worklist is cut into contiguous chunks, and each chunk
/// evaluates through its own QualChecker (own memo) against the round's
/// frozen assumptions, so the drop set, the round count, and the
/// evaluation count are the same at every \p Options.Jobs value.
void solveConstraints(Program &Prog, const QualifierSet &Quals,
                      const ConstraintInferenceOptions &Options,
                      const std::vector<FlowEdge> &Edges, Assumptions &Assumed,
                      InferenceStats &Stats) {
  for (const auto &[Var, Set] : Assumed)
    Stats.Atoms += static_cast<unsigned>(Set.size());
  Stats.Constraints = static_cast<unsigned>(Edges.size());
  unsigned Jobs = std::max(1u, Options.Jobs);

  // Variable -> indices of constraints whose right-hand side reads it.
  std::map<const VarDecl *, std::vector<unsigned>> Dependents;
  for (unsigned Id = 0; Id < Edges.size(); ++Id) {
    std::vector<const VarDecl *> Reads;
    collectReadVars(Edges[Id].RHS, Reads);
    std::sort(Reads.begin(), Reads.end());
    Reads.erase(std::unique(Reads.begin(), Reads.end()), Reads.end());
    for (const VarDecl *V : Reads)
      Dependents[V].push_back(Id);
  }

  // Every constraint starts queued.
  std::vector<unsigned> Worklist(Edges.size());
  for (unsigned I = 0; I < Worklist.size(); ++I)
    Worklist[I] = I;
  std::vector<char> Queued(Edges.size(), 1);

  CheckerOptions CO = Options.Checker;
  CO.AssumedVarQuals = &Assumed;
  auto Start = std::chrono::steady_clock::now();
  while (!Worklist.empty()) {
    ++Stats.SolveRounds;

    // Each chunk has a preassigned result slot, so the merged drop list is
    // chunk-order deterministic (and the drop *set* is Jobs-independent:
    // assumptions are frozen for the round).
    size_t Chunks =
        Jobs <= 1 ? 1
                  : std::min(Worklist.size(), static_cast<size_t>(Jobs) * 4);
    size_t PerChunk = (Worklist.size() + Chunks - 1) / Chunks;
    std::vector<std::vector<std::pair<const VarDecl *, std::string>>> Drops(
        Chunks);
    std::vector<uint64_t> Evals(Chunks, 0);

    parallelFor(
        Jobs, Chunks,
        [&](size_t C) {
          DiagnosticEngine Scratch;
          QualChecker Checker(Prog, Quals, Scratch, CO);
          size_t Begin = C * PerChunk;
          size_t End = std::min(Begin + PerChunk, Worklist.size());
          for (size_t I = Begin; I < End; ++I) {
            const FlowEdge &E = Edges[Worklist[I]];
            auto Found = Assumed.find(E.Target);
            if (Found == Assumed.end() || Found->second.empty())
              continue;
            for (const std::string &Q : Found->second) {
              ++Evals[C];
              if (!Checker.hasQualifier(E.RHS, Q))
                Drops[C].push_back({E.Target, Q});
            }
          }
        },
        nullptr, Options.Pool);

    for (uint64_t N : Evals)
      Stats.Evaluations += N;

    // Barrier: apply the round's drops and queue dependents.
    std::fill(Queued.begin(), Queued.end(), 0);
    bool AnyDropped = false;
    for (const auto &Chunk : Drops) {
      for (const auto &[Var, Q] : Chunk) {
        auto Found = Assumed.find(Var);
        if (Found == Assumed.end() || !Found->second.erase(Q))
          continue; // Another constraint already dropped it this round.
        ++Stats.Dropped;
        AnyDropped = true;
        auto Deps = Dependents.find(Var);
        if (Deps == Dependents.end())
          continue;
        for (unsigned Id : Deps->second)
          Queued[Id] = 1;
      }
    }
    if (!AnyDropped)
      break;
    Worklist.clear();
    for (unsigned I = 0; I < Queued.size(); ++I)
      if (Queued[I])
        Worklist.push_back(I);
  }
  Stats.SolveSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// The constraint engine
//===----------------------------------------------------------------------===//

InferenceReport stq::checker::inferWithConstraints(
    Program &Prog, const QualifierSet &Quals,
    const ConstraintInferenceOptions &Options) {
  InferenceReport Report;

  // Constraint generation, fanned out per unit and merged in unit order —
  // the exact edge order the sequential reference collector produces.
  unsigned Units = flowUnitCount(Prog);
  Report.Stats.Units = Units;
  std::vector<UnitFlows> PerUnit(Units);
  parallelFor(
      Options.Jobs, Units,
      [&](size_t U) {
        collectUnitFlows(Prog, static_cast<unsigned>(U), PerUnit[U]);
      },
      nullptr, Options.Pool);

  std::vector<FlowEdge> Edges;
  std::set<const VarDecl *> HasFlow;
  std::set<const VarDecl *> AddrTaken;
  for (const UnitFlows &Unit : PerUnit) {
    Edges.insert(Edges.end(), Unit.Edges.begin(), Unit.Edges.end());
    for (const FlowEdge &E : Unit.Edges)
      HasFlow.insert(E.Target);
    AddrTaken.insert(Unit.AddrTaken.begin(), Unit.AddrTaken.end());
  }

  // Optimistic seeding: every applicable value qualifier on every variable
  // something flows into (identical to the reference engine's seeding).
  // Address-taken variables are excluded: qualifiers are invariant below
  // pointers, so a fresh annotation would retype every `&v` use.
  Assumptions Assumed;
  for (const UnitFlows &Unit : PerUnit) {
    for (const VarDecl *Var : Unit.Vars) {
      if (!HasFlow.count(Var) || AddrTaken.count(Var))
        continue;
      if (Options.Scope == InferenceScope::LocalsOnly && Var->IsGlobal)
        continue;
      for (const QualifierDef &Q : Quals.all()) {
        if (Q.IsRef || !Q.Invariant)
          continue; // Flow qualifiers are not useful to infer.
        if (Q.SubjectTy.matches(Var->DeclaredTy))
          Assumed[Var].insert(Q.Name);
      }
    }
  }

  solveConstraints(Prog, Quals, Options, Edges, Assumed, Report.Stats);

  buildSuggestions(Prog, Quals, Options, Assumed, Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Apply / strip
//===----------------------------------------------------------------------===//

void stq::checker::applyReport(Program &Prog, const InferenceReport &Report) {
  for (const InferenceSuggestion &S : Report.Suggestions) {
    if (!S.Decl)
      continue;
    TypePtr Ty = S.Decl->DeclaredTy;
    for (const SuggestedQual &Q : S.Quals)
      if (!Q.Implied)
        Ty = Type::withQual(Ty, Q.Qual);
    const_cast<VarDecl *>(S.Decl)->DeclaredTy = Ty;
  }
  Prog.Ctx.resetComputedTypes();
}

unsigned stq::checker::stripInferableQualifiers(Program &Prog,
                                                const QualifierSet &Quals) {
  std::vector<std::string> Inferable;
  for (const QualifierDef &Q : Quals.all())
    if (!Q.IsRef && Q.Invariant)
      Inferable.push_back(Q.Name);
  std::set<std::string> InferableSet(Inferable.begin(), Inferable.end());

  unsigned Stripped = 0;
  UnitFlows All = collectAllFlows(Prog);
  for (const VarDecl *Var : All.Vars) {
    unsigned Present = 0;
    for (const std::string &Q : Var->DeclaredTy->quals())
      if (InferableSet.count(Q))
        ++Present;
    if (!Present)
      continue;
    Stripped += Present;
    const_cast<VarDecl *>(Var)->DeclaredTy =
        Type::withoutQualsIn(Var->DeclaredTy, Inferable);
  }
  Prog.Ctx.resetComputedTypes();
  return Stripped;
}
