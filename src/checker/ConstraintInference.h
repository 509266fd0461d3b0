//===- ConstraintInference.h - Whole-program inference ----------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint-based whole-program qualifier inference: the one engine
/// behind `stqc infer` and the stq-rpc-v1 `infer` command. The sequential
/// greatest-fixpoint engine in Inference.h is kept only as the reference
/// oracle the tests and the fuzzer compare against. CQUAL-style in
/// structure (Foster et al., PLDI 1999; reimplemented for two-point
/// lattices in src/cqual): per-unit constraint generation fans out on the
/// ThreadPool, a qualifier-variable graph is solved by round-based
/// worklist propagation, and the resulting annotation set is *minimized* by
/// prover-discharged implication: when suggested qualifier P provably
/// implies qualifier Q — Q's invariant follows from P's, and Q carries a
/// derivation clause `E1, where P(E1)`-style so the checker re-derives Q
/// at every use site — Q is demoted from the suggestion to its provenance
/// trail. Implication queries run on the incremental prover engine and
/// memoize through the shared ProverCache.
///
/// The solve is a Jacobi-style greatest-fixpoint iteration: each round
/// evaluates every queued constraint against a *frozen* snapshot of the
/// current assumptions, applies the resulting qualifier drops between
/// rounds, and re-queues only constraints depending on a dropped variable.
/// Because rounds are barriers over frozen state, the drop set per round —
/// and therefore the final fixpoint, the round count, and the evaluation
/// count — is identical at every `--jobs` value. (The reference engine is
/// Gauss-Seidel over the same edges; both converge to the same greatest
/// fixpoint since the drop operator is monotone.)
///
/// Suggestions are keyed and ordered by (unit, function, variable name,
/// source location), never by AST pointer, so reports are byte-stable
/// across runs and `--jobs` values.
///
/// Soundness of minimization: the full inferred set is the greatest
/// fixpoint, so every assignment into an annotated variable re-checks; a
/// demoted qualifier removes assignment obligations while each use site
/// still derives it through the implying qualifier's clause. Applying the
/// minimal suggested set therefore re-checks clean.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_CONSTRAINTINFERENCE_H
#define STQ_CHECKER_CONSTRAINTINFERENCE_H

#include "checker/Checker.h"
#include "prover/Prover.h"
#include "prover/ProverCache.h"
#include "support/SourceLoc.h"
#include "support/ThreadPool.h"

#include <string>
#include <vector>

namespace stq::checker {

enum class InferenceScope {
  Program,    ///< Infer for globals, parameters, and locals.
  LocalsOnly, ///< Skip globals (API surface deserves explicit annotations).
};

/// Stable lowercase names, used by the CLI/RPC option surface and the
/// stq-inference-v1 schema.
const char *scopeName(InferenceScope S);
bool parseScopeName(const std::string &Name, InferenceScope &Out);

struct ConstraintInferenceOptions {
  InferenceScope Scope = InferenceScope::Program;
  /// Worker count for constraint generation and the graph solve.
  unsigned Jobs = 1;
  /// Shared long-lived pool (the stqd daemon's); null spawns per-solve.
  ThreadPool *Pool = nullptr;
  /// Prover options for suggestion minimization (the full inferred set is
  /// always retained in the report's provenance).
  prover::ProverOptions Prover;
  /// Shared prover cache for implication queries; may be null.
  prover::ProverCache *Cache = nullptr;
  /// Keep at most this many suggestion entries in the report (0 =
  /// unlimited). A truncated report is for human consumption only;
  /// apply-mode always applies the complete minimal set, because a
  /// partial application is not guaranteed to re-check clean.
  unsigned MaxSuggestions = 0;
  /// Base checker options for constraint evaluation.
  CheckerOptions Checker;
};

/// One qualifier attached to a suggestion, with its provenance.
struct SuggestedQual {
  std::string Qual;
  /// "solver" for minimal-set members, "implied:<P>" for qualifiers
  /// demoted by a prover-discharged implication from suggested P.
  std::string Provenance;
  bool Implied = false;
};

/// All newly inferred qualifiers for one variable, keyed deterministically.
struct InferenceSuggestion {
  /// Generation unit: 0 for globals, 1+i for function i.
  unsigned Unit = 0;
  /// Enclosing function name; empty for globals.
  std::string Function;
  std::string Var;
  /// "global", "parameter", or "local".
  std::string Kind;
  SourceLoc Loc;
  /// Sorted by qualifier name; minimal-set members plus demoted ones.
  std::vector<SuggestedQual> Quals;
  /// The declaration, for applyReport; not part of the ordering key.
  const cminus::VarDecl *Decl = nullptr;
};

struct InferenceStats {
  /// Wall-clock seconds inside the parallel graph solve alone (excludes
  /// generation and suggestion minimization) — the quantity the solve
  /// benchmark holds to its jobs-scaling acceptance criterion.
  double SolveSeconds = 0;
  unsigned Units = 0;       ///< Constraint-generation units.
  unsigned Atoms = 0;       ///< Seeded candidate atoms.
  unsigned Constraints = 0; ///< Flow constraints.
  unsigned SolveRounds = 0; ///< Jacobi rounds until the worklist drained.
  uint64_t Evaluations = 0; ///< (constraint, qualifier) evaluations.
  unsigned Dropped = 0;     ///< Atoms refuted by the solve.
  unsigned Variables = 0;   ///< Variables with at least one inferred qual.
  unsigned Suggested = 0;   ///< Minimal-set (variable, qualifier) pairs.
  unsigned Implied = 0;     ///< Pairs demoted by prover refinement.
  unsigned ProverQueries = 0;   ///< Implication goals discharged.
  unsigned ProverCacheHits = 0; ///< Of which answered by the shared cache.
  unsigned Truncated = 0;   ///< Suggestion entries dropped by the budget.
};

/// The first-class inference result: deterministic suggestions plus solver
/// statistics.
struct InferenceReport {
  std::vector<InferenceSuggestion> Suggestions;
  InferenceStats Stats;

  /// Minimal-set (variable, qualifier) pairs in the report.
  unsigned totalSuggested() const;
  /// All inferred pairs (minimal plus demoted) — the full greatest
  /// fixpoint, which the reference oracle compares against.
  unsigned totalInferred() const;
};

/// Runs the sharded constraint engine over \p Prog (Sema-checked and
/// lowered). Does not mutate the program.
InferenceReport inferWithConstraints(cminus::Program &Prog,
                                     const qual::QualifierSet &Quals,
                                     const ConstraintInferenceOptions &Options);

/// Applies every suggestion's minimal set to the declared types and resets
/// computed types; callers re-run Sema (or re-parse the printed source).
void applyReport(cminus::Program &Prog, const InferenceReport &Report);

/// Strips every inferable qualifier (value qualifiers with invariants)
/// from all declared variable types — the fuzz oracle's annotation-removal
/// step. Returns the number of (variable, qualifier) pairs removed.
unsigned stripInferableQualifiers(cminus::Program &Prog,
                                  const qual::QualifierSet &Quals);

} // namespace stq::checker

#endif // STQ_CHECKER_CONSTRAINTINFERENCE_H
