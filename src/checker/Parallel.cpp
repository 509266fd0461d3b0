//===- Parallel.cpp -------------------------------------------------------===//

#include "checker/Parallel.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <optional>

using namespace stq;
using namespace stq::checker;

namespace {

/// Accumulates \p From into \p Into: counters add, record lists append.
void mergeResult(CheckResult &Into, CheckResult &From) {
  Into.QualErrors += From.QualErrors;

  CheckerStats &A = Into.Stats;
  const CheckerStats &B = From.Stats;
  A.DerefSites += B.DerefSites;
  A.RestrictChecks += B.RestrictChecks;
  A.RestrictFailures += B.RestrictFailures;
  A.AssignChecks += B.AssignChecks;
  A.AssignFailures += B.AssignFailures;
  A.RefAssignChecks += B.RefAssignChecks;
  A.RefAssignFailures += B.RefAssignFailures;
  A.DisallowFailures += B.DisallowFailures;
  A.CastsToValueQualified += B.CastsToValueQualified;
  A.CastsToRefQualified += B.CastsToRefQualified;
  A.ElidedCastChecks += B.ElidedCastChecks;
  A.HasQualQueries += B.HasQualQueries;
  A.MemoHits += B.MemoHits;
  A.FormatStringChecks += B.FormatStringChecks;

  Into.RuntimeChecks.insert(Into.RuntimeChecks.end(),
                            std::make_move_iterator(From.RuntimeChecks.begin()),
                            std::make_move_iterator(From.RuntimeChecks.end()));
  Into.Failures.insert(Into.Failures.end(),
                       std::make_move_iterator(From.Failures.begin()),
                       std::make_move_iterator(From.Failures.end()));
}

} // namespace

CheckResult stq::checker::checkProgramsParallel(
    const std::vector<cminus::Program *> &Progs,
    const qual::QualifierSet &Quals, const UnitDiagnosticsSink &Report,
    CheckerOptions Options, unsigned Jobs, ParallelStats *StatsOut,
    ThreadPool *Pool) {
  trace::Span Span("qualcheck");
  // Every unit of every program, in merge order; Fn is null for a
  // program's global initializers.
  struct Unit {
    size_t Prog = 0;
    cminus::FuncDecl *Fn = nullptr;
    std::vector<Diagnostic> Diags;
    CheckResult Result;
    std::atomic<bool> Done{false};
  };
  size_t Count = 0;
  for (cminus::Program *Prog : Progs)
    Count += 1 + std::count_if(
                     Prog->Functions.begin(), Prog->Functions.end(),
                     [](cminus::FuncDecl *Fn) { return Fn->isDefinition(); });
  std::vector<Unit> Units(Count);
  size_t At = 0;
  for (size_t P = 0; P < Progs.size(); ++P) {
    Units[At++].Prog = P;
    for (cminus::FuncDecl *Fn : Progs[P]->Functions)
      if (Fn->isDefinition()) {
        Units[At].Prog = P;
        Units[At++].Fn = Fn;
      }
  }

  // Merges every finished unit from Committed on, in order. Only the
  // calling thread (runner 0) commits.
  CheckResult Merged;
  size_t Committed = 0;
  auto commit = [&] {
    for (; Committed < Units.size() &&
           Units[Committed].Done.load(std::memory_order_acquire);
         ++Committed) {
      Unit &U = Units[Committed];
      Report(U.Prog, std::move(U.Diags));
      mergeResult(Merged, U.Result);
      U.Result = CheckResult();
    }
  };

  const unsigned Runners = parallelRunners(Jobs, Units.size());
  std::vector<DiagnosticEngine> RunnerDiags(Runners);
  std::vector<std::optional<QualChecker>> Checkers(Runners);
  ThreadPool::PoolStats PoolStats;
  parallelFor(
      Jobs, Units.size(),
      [&](size_t I, unsigned Runner) {
        Unit &U = Units[I];
        cminus::Program &Prog = *Progs[U.Prog];
        DiagnosticEngine &Diags = RunnerDiags[Runner];
        std::optional<QualChecker> &Checker = Checkers[Runner];
        if (!Checker)
          Checker.emplace(Prog, Quals, Diags, Options);
        U.Result = Checker->runUnit(Prog, Diags, U.Fn);
        U.Diags = Diags.takeDiagnostics();
        U.Done.store(true, std::memory_order_release);
        if (Runner == 0)
          commit();
      },
      &PoolStats, Pool);
  commit();

  if (StatsOut) {
    *StatsOut = {};
    StatsOut->Units = static_cast<unsigned>(Units.size());
    StatsOut->Jobs = Jobs == 0 ? 1 : Jobs;
    StatsOut->Executed = PoolStats.Executed;
    StatsOut->Steals = PoolStats.Steals;
  }
  return Merged;
}

CheckResult stq::checker::checkProgramParallel(cminus::Program &Prog,
                                               const qual::QualifierSet &Quals,
                                               DiagnosticEngine &Diags,
                                               CheckerOptions Options,
                                               unsigned Jobs,
                                               ParallelStats *StatsOut,
                                               ThreadPool *Pool) {
  auto Report = [&Diags](size_t, std::vector<Diagnostic> Unit) {
    for (Diagnostic &D : Unit)
      Diags.report(std::move(D));
  };
  return checkProgramsParallel({&Prog}, Quals, Report, Options, Jobs,
                               StatsOut, Pool);
}

CheckResult stq::checker::checkSourceParallel(
    const std::string &Source, const qual::QualifierSet &Quals,
    DiagnosticEngine &Diags, std::unique_ptr<cminus::Program> &ProgOut,
    CheckerOptions Options, unsigned Jobs, ParallelStats *StatsOut) {
  ProgOut = cminus::parseProgram(Source, Quals.names(), Diags);
  CheckResult Empty;
  if (Diags.hasErrors())
    return Empty;
  if (!cminus::runSema(*ProgOut, Quals.refNames(), Diags))
    return Empty;
  if (!cminus::lowerProgram(*ProgOut, Diags))
    return Empty;
  if (!cminus::verifyLoweredProgram(*ProgOut, Diags))
    return Empty;
  return checkProgramParallel(*ProgOut, Quals, Diags, Options, Jobs,
                              StatsOut);
}
