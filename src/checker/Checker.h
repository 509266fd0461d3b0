//===- Checker.h - The extensible qualifier typechecker ---------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extensible typechecker of section 3. Given a lowered C-minus program
/// and a set of qualifier definitions, it:
///
///  * validates every explicit and implicit assignment (declarations,
///    assignments, call arguments, returns) against the value-qualifier
///    subtype relation, using user-defined `case` clauses to derive
///    qualified types for expressions;
///  * enforces `restrict` clauses on every matching program fragment;
///  * enforces `assign` and `disallow` rules for reference qualifiers,
///    stripping reference qualifiers from r-types;
///  * records the run-time checks needed for casts to value-qualified types
///    (section 2.1.3); casts involving reference qualifiers stay unchecked.
///
/// Qualifier errors are reported as warnings (phase "qualcheck"), matching
/// the paper's CIL implementation where compilation continues.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_CHECKER_H
#define STQ_CHECKER_CHECKER_H

#include "cminus/AST.h"
#include "qual/QualAST.h"
#include "support/Diagnostics.h"

#include <array>
#include <cassert>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stq::checker {

struct CheckerOptions {
  /// Memoize hasQualifier queries (ablation knob; see DESIGN.md).
  bool Memoize = true;
  /// Skip run-time checks for casts whose qualifiers are statically
  /// derivable from the operand.
  bool ElideProvableCastChecks = true;
  /// Expressions (by Expr::Id) assumed to carry the given qualifiers, as
  /// if a cast had been inserted. Used by the annotation driver to model
  /// the paper's manually inserted casts without AST surgery.
  const std::map<unsigned, std::vector<std::string>> *AssumedCasts = nullptr;
  /// Tentative qualifier sets per variable, consulted for bare-variable
  /// reads. Used by the inference engine's greatest-fixpoint iteration
  /// (section 8 future work).
  const std::map<const cminus::VarDecl *, std::set<std::string>>
      *AssumedVarQuals = nullptr;
  /// The paper's section 8 future work, implemented as an opt-in
  /// extension: a branch condition that dynamically verifies a value
  /// qualifier's invariant (e.g. `p != NULL` for nonnull, `x > 0` for
  /// pos) narrows the qualifier onto the tested variable inside the
  /// guarded branch. Narrowing is suppressed for variables assigned
  /// anywhere in the branch (conservative kill).
  bool FlowSensitiveNarrowing = false;
};

/// One structured qualifier failure, for tools (the annotation driver)
/// that need more than a diagnostic string.
struct QualFailure {
  enum class Kind { Restrict, Assign, RefAssign, Disallow };

  Kind K = Kind::Assign;
  std::string Qual;
  SourceLoc Loc;
  /// The expression that could not be given the qualifier (the restrict
  /// clause's bound operand, or the assignment's RHS). May be null.
  const cminus::Expr *Offending = nullptr;
  /// The assignment target variable, when the target is a bare variable or
  /// a declaration. Null otherwise.
  const cminus::VarDecl *TargetVar = nullptr;
};

/// A run-time check required for one cast to a value-qualified type.
struct RuntimeCastCheck {
  const cminus::CastExpr *Cast = nullptr;
  /// Value qualifiers whose invariants must be tested dynamically.
  std::vector<std::string> Quals;
};

/// Counters describing one checking run; these feed the paper's experiment
/// tables directly.
struct CheckerStats {
  /// Dereference sites visited (every Mem l-value); Table 1's
  /// "dereferences" row when nonnull's restrict clause is loaded.
  unsigned DerefSites = 0;
  /// restrict-clause checks performed and failed.
  unsigned RestrictChecks = 0;
  unsigned RestrictFailures = 0;
  /// Explicit+implicit assignment checks against qualified targets.
  unsigned AssignChecks = 0;
  unsigned AssignFailures = 0;
  /// assign-block validations for reference-qualified targets.
  unsigned RefAssignChecks = 0;
  unsigned RefAssignFailures = 0;
  /// disallow-rule violations.
  unsigned DisallowFailures = 0;
  /// Casts whose target carries value qualifiers / reference qualifiers.
  unsigned CastsToValueQualified = 0;
  unsigned CastsToRefQualified = 0;
  /// Run-time checks that were elided because the qualifier was statically
  /// derivable from the cast operand.
  unsigned ElidedCastChecks = 0;
  /// hasQualifier queries answered (including memo hits).
  unsigned HasQualQueries = 0;
  unsigned MemoHits = 0;
  /// printf-style calls whose format parameter is untainted-qualified.
  unsigned FormatStringChecks = 0;
};

/// Result of running the extensible typechecker.
struct CheckResult {
  /// Number of qualifier errors (reported as warnings in Diags).
  unsigned QualErrors = 0;
  CheckerStats Stats;
  std::vector<RuntimeCastCheck> RuntimeChecks;
  std::vector<QualFailure> Failures;

  bool ok() const { return QualErrors == 0; }
};

/// The extensible typechecker for one qualifier set and option set. Each
/// run*() call checks units of the current program and moves their result
/// out, so one instance can check any number of units in turn, and
/// runUnit() can point it at another program: the sharded pipeline keeps
/// one instance per runner and reuses its tables.
class QualChecker {
public:
  QualChecker(cminus::Program &Prog, const qual::QualifierSet &Quals,
              DiagnosticEngine &Diags, CheckerOptions Options = {});

  /// Performs qualifier checking over the whole program.
  CheckResult run();

  /// Shard entry points for the parallel pipeline (Parallel.h). A unit is
  /// either the global initializers or one function definition; run() is
  /// runGlobals() followed by runFunction() on every definition. The
  /// checker never mutates the program, so distinct instances may check
  /// distinct units of one program concurrently.
  CheckResult runGlobals();
  CheckResult runFunction(cminus::FuncDecl *Fn);
  /// Checks one unit of \p Prog (\p Fn, or the global initializers when
  /// \p Fn is null), reporting into \p Diags; later calls keep using them.
  CheckResult runUnit(cminus::Program &Prog, DiagnosticEngine &Diags,
                      cminus::FuncDecl *Fn);

  /// Can \p E be given qualifier \p Q? Uses the declared/static type and the
  /// qualifier's case clauses (recursively). Public so tests, the
  /// annotation driver, and the CQUAL baseline can query it.
  bool hasQualifier(const cminus::Expr *E, const qual::QualifierDef *Q);
  bool hasQualifier(const cminus::Expr *E, const std::string &QualName);

private:
  /// One bound pattern variable: an expression or an l-value fragment.
  struct Binding {
    const std::string *Name = nullptr;
    const cminus::Expr *E = nullptr;
    const cminus::LValue *LV = nullptr;
  };
  /// The variables bound by one clause attempt. A pattern binds at most
  /// three names (the subject, X and Y), so they live in a fixed array.
  struct Bindings {
    std::array<Binding, 3> Slots;
    unsigned Size = 0;

    const Binding *find(const std::string &Name) const {
      for (unsigned I = 0; I < Size; ++I)
        if (*Slots[I].Name == Name)
          return &Slots[I];
      return nullptr;
    }
    void bind(const std::string &Name, const cminus::Expr *E,
              const cminus::LValue *LV) {
      assert(Size < Slots.size() && "a pattern binds at most three names");
      Slots[Size++] = Binding{&Name, E, LV};
    }
  };

  /// Where an assignment check happens. The "in ..." text of a failed
  /// check is rendered from it, so passing checks build no strings.
  struct AssignSite {
    enum class Kind { Init, GlobalInit, Assign, Return, Argument };
    Kind K = Kind::Init;
    /// The variable, function or callee name (not used by Kind::Assign).
    std::string_view Name;
    /// Kind::Assign: the assigned l-value.
    const cminus::LValue *Target = nullptr;
    /// Kind::Argument: the 1-based argument position.
    size_t Arg = 0;

    std::string str() const;
  };

  /// Starts a unit: clears the per-unit state and invalidates the memo.
  void beginUnit();
  void checkGlobals();
  /// Moves the accumulated result out, leaving an empty one.
  CheckResult takeResult();

  void warn(SourceLoc Loc, const std::string &Message);

  // Traversal.
  void checkFunction(cminus::FuncDecl *Fn);
  void checkStmt(cminus::Stmt *S);
  /// Scans a pure expression: restrict clauses, disallow rules, cast
  /// recording. \p InMemAddr is true when the expression (transitively via
  /// +/-) forms the address of a dereference, where reading a
  /// disallow-read l-value is permitted.
  void scanExpr(const cminus::Expr *E, bool InMemAddr);
  /// \p GrantDerefExemption controls whether reading a disallow-read
  /// l-value inside this l-value's address computation is permitted. True
  /// for reads and writes (dereferencing consumes the pointer); false
  /// under address-of, where the pointer's value escapes (e.g. `&*p`).
  void scanLValue(const cminus::LValue *LV, bool IsWrite,
                  bool GrantDerefExemption = true);
  void scanCall(const cminus::CallExpr *Call);

  /// Validates RHS (which may be a direct call) flowing into an l-value or
  /// declaration of type \p DstTy. Handles value-qualifier subtyping and
  /// reference-qualifier assign rules. \p TargetVar is the destination
  /// variable when the target is a bare variable (for failure records).
  void checkAssignmentTo(const cminus::TypePtr &DstTy, const cminus::Expr *RHS,
                         SourceLoc Loc, const AssignSite &What,
                         const cminus::VarDecl *TargetVar = nullptr);
  /// Value-qualifier half of an assignment check.
  void checkValueQualFlow(const cminus::TypePtr &DstTy,
                          const cminus::Expr *RHS, SourceLoc Loc,
                          const AssignSite &What,
                          const cminus::VarDecl *TargetVar);
  /// Reference-qualifier half: RHS must satisfy some assign clause of \p Q,
  /// or be an unchecked cast to a Q-qualified type.
  void checkRefAssign(const qual::QualifierDef *Q, const cminus::Expr *RHS,
                      SourceLoc Loc, const AssignSite &What,
                      const cminus::VarDecl *TargetVar);

  // Pattern matching.
  /// Matches a case-clause pattern against expression \p E.
  bool matchExprPattern(const qual::Clause &C, const qual::QualifierDef *Q,
                        const cminus::Expr *E, Bindings &Out);
  /// Matches an assign-clause pattern against RHS \p E (NULL/new allowed).
  bool matchAssignPattern(const qual::Clause &C, const cminus::Expr *E,
                          Bindings &Out);
  /// Binds variable \p Name to \p E, checking classifier and type pattern.
  bool bindVar(const qual::Clause &C, const qual::QualifierDef *Q,
               const std::string &Name, const cminus::Expr *E, Bindings &Out);
  bool bindLValue(const qual::Clause &C, const std::string &Name,
                  const cminus::LValue *LV, Bindings &Out);
  /// Evaluates a where-predicate under \p B.
  bool evalPred(const qual::Pred &P, const Bindings &B);

  // Restrict / disallow.
  void applyRestrictsToDeref(const cminus::LValue *LV);
  void applyRestrictsToExpr(const cminus::Expr *E);
  /// \p Site is the matched expression; for a dereference restrict it is
  /// the dereferenced address (\p Deref).
  void runRestrictClause(const qual::QualifierDef *Q, const qual::Clause &C,
                         Bindings &B, SourceLoc Loc, const cminus::Expr *Site,
                         bool Deref);

  void recordCast(const cminus::CastExpr *Cast);

  // Flow-sensitive narrowing (CheckerOptions::FlowSensitiveNarrowing).
  /// Qualifier narrowings implied by \p Cond when it evaluates true
  /// (\p Sense true) or false (\p Sense false): pairs of (variable,
  /// qualifier name).
  void narrowingsFrom(const cminus::Expr *Cond, bool Sense,
                      std::vector<std::pair<const cminus::VarDecl *,
                                            std::string>> &Out);
  /// Does the integer comparison `v Op C` (true branch) imply qualifier
  /// \p Q's invariant?
  bool comparisonImpliesInvariant(const qual::QualifierDef *Q,
                                  cminus::BinaryOp Op, bool IsNull,
                                  int64_t C);
  /// Runs \p Body with the given narrowings active (suppressing those
  /// whose variable is assigned within \p Body).
  void checkNarrowed(cminus::Stmt *Body,
                     const std::vector<std::pair<const cminus::VarDecl *,
                                                 std::string>> &Narrowings);
  static void collectAssignedVars(const cminus::Stmt *S,
                                  std::set<const cminus::VarDecl *> &Out);

  cminus::Program *Prog;
  const qual::QualifierSet &Quals;
  DiagnosticEngine *Diags;
  CheckerOptions Options;
  CheckResult Result;
  cminus::FuncDecl *CurrentFn = nullptr;

  // hasQualifier machinery.
  /// The hasQualifier memo: an open-addressing table over (Expr::Id,
  /// qualifier index) that allocates only when it grows. An entry is live
  /// when its stamp equals the current generation, so clear() is O(1).
  class MemoTable {
  public:
    /// The memoized verdict, or null.
    const bool *find(unsigned Id, unsigned Qual) const;
    void insert(unsigned Id, unsigned Qual, bool Derivable);
    void clear();

  private:
    struct Entry {
      uint32_t Stamp = 0;
      unsigned Id = 0;
      unsigned Qual = 0;
      bool Derivable = false;
    };
    size_t home(unsigned Id, unsigned Qual) const;

    std::vector<Entry> Table;
    size_t Live = 0;
    uint32_t Generation = 1;
  };
  MemoTable Memo;
  /// The (Expr::Id, qualifier) queries being derived, innermost last.
  std::vector<std::pair<unsigned, const qual::QualifierDef *>> InProgress;
  /// True while the current derivation has consulted an in-progress query;
  /// such results are not memoized (they are valid only in context).
  bool TouchedInProgress = false;
  /// Casts already recorded in this unit (a cast expression is scanned
  /// once).
  std::vector<const cminus::CastExpr *> RecordedCasts;
  /// Active flow-sensitive narrowings: variable -> qualifier names.
  std::map<const cminus::VarDecl *, std::set<std::string>> Narrowed;
};

/// Convenience entry point: runs the full front end (parse, sema, lower,
/// verify) with \p Quals registered, then the qualifier checker. Returns the
/// parsed program through \p ProgOut (may be null on parse failure).
CheckResult checkSource(const std::string &Source,
                        const qual::QualifierSet &Quals,
                        DiagnosticEngine &Diags,
                        std::unique_ptr<cminus::Program> &ProgOut,
                        CheckerOptions Options = {});

} // namespace stq::checker

#endif // STQ_CHECKER_CHECKER_H
