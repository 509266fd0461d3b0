//===- Session.cpp --------------------------------------------------------===//

#include "driver/Session.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "qual/Builtins.h"
#include "qual/QualParser.h"
#include "support/ThreadPool.h"
#include "vm/VM.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace stq;

bool stq::readFileToString(const std::string &Path, std::string &Out,
                           std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

Session::Session(SessionOptions Options) : Opts(std::move(Options)) {
  if (Opts.SharedQualifiers)
    QualsView = Opts.SharedQualifiers;
  if (Opts.SharedCache)
    CachePtr = Opts.SharedCache;
}

Session::~Session() = default;

bool Session::loadQualifiers() {
  if (Loaded != LoadState::NotLoaded)
    return Loaded == LoadState::Ok;
  if (Opts.SharedQualifiers) {
    // The owner loaded (and well-formed-checked) the set once.
    Loaded = LoadState::Ok;
    Metrics.set("qual.loaded", QualsView->all().size());
    return true;
  }
  Loaded = LoadState::Failed;

  stats::ScopedTimer Timer(&Metrics, "phase.qualload_seconds");
  std::vector<std::string> Builtins = Opts.Builtins;
  if (Builtins.empty() && Opts.QualFiles.empty() && Opts.QualSources.empty() &&
      Opts.ImplicitAllBuiltins)
    Builtins = qual::builtinQualifierNames();

  for (const std::string &Name : Builtins) {
    std::string Source = qual::builtinQualifierSource(Name);
    if (Source.empty()) {
      Diags.error(SourceLoc(), "driver",
                  "unknown builtin qualifier '" + Name + "'");
      return false;
    }
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  }
  for (const std::string &Path : Opts.QualFiles) {
    std::string Source, Error;
    if (!readFileToString(Path, Source, Error)) {
      Diags.error(SourceLoc(), "driver", Error);
      return false;
    }
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  }
  for (const std::string &Source : Opts.QualSources)
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  if (!qual::checkWellFormed(Quals, Diags))
    return false;

  Loaded = LoadState::Ok;
  Metrics.set("qual.loaded", Quals.all().size());
  return true;
}

std::unique_ptr<cminus::Program> Session::frontEnd(const std::string &Source,
                                                   bool &Ok) {
  Ok = false;
  std::unique_ptr<cminus::Program> Prog;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.parse_seconds");
    Prog = cminus::parseProgram(Source, QualsView->names(), Diags);
  }
  if (!Prog || Diags.hasErrors())
    return Prog;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.sema_seconds");
    if (!cminus::runSema(*Prog, QualsView->refNames(), Diags))
      return Prog;
  }
  {
    stats::ScopedTimer Timer(&Metrics, "phase.lower_seconds");
    if (!cminus::lowerProgram(*Prog, Diags) ||
        !cminus::verifyLoweredProgram(*Prog, Diags))
      return Prog;
  }
  Ok = true;
  return Prog;
}

Session::FrontEndOutcome Session::frontEnd(const std::string &Source) {
  FrontEndOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  Out.Program = frontEnd(Source, Out.Ok);
  publishDiagMetrics();
  return Out;
}

Session::CheckOutcome Session::check(const std::string &Source) {
  CheckOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  Out.Program = frontEnd(Source, Out.FrontEndOk);
  if (Out.FrontEndOk) {
    stats::ScopedTimer Timer(&Metrics, "phase.qualcheck_seconds");
    Out.Result =
        checker::checkProgramParallel(*Out.Program, *QualsView, Diags,
                                      Opts.Checker, Opts.Jobs, &Out.Pipeline,
                                      Opts.SharedPool);
  }
  publishCheckMetrics(Out.FrontEndOk, Out.Result, Out.Pipeline);
  publishDiagMetrics();
  return Out;
}

namespace {

/// Adds \p B's counters into \p A (the multi-TU merge; mirrors the
/// parallel checker's own per-shard merge, so a multi-TU verdict sums the
/// way a single flattened TU would count).
void mergeCheckerStats(checker::CheckerStats &A, const checker::CheckerStats &B) {
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
}

} // namespace

frontend::CompileOptions Session::compileOptions() const {
  frontend::CompileOptions CO;
  CO.Pp.IncludeDirs = Opts.IncludeDirs;
  CO.Pp.Defines = Opts.Defines;
  CO.Files = Opts.ShippedFiles;
  CO.QualNames = QualsView->names();
  CO.RefQualNames = QualsView->refNames();
  return CO;
}

void Session::reportUnitDiags(std::vector<Diagnostic> Ds,
                              const frontend::TUnit &U) {
  frontend::remapDiagnostics(Ds, 0, U.Name, U.Pp.Map);
  for (Diagnostic &D : Ds)
    Diags.report(std::move(D));
}

Session::LoadOutcome
Session::load(const std::vector<frontend::InputFile> &Inputs) {
  LoadOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  const frontend::CompileOptions CO = compileOptions();
  const size_t N = Inputs.size();
  Out.Units.resize(N);
  std::vector<DiagnosticEngine> UnitDiags(N);
  {
    // Each TU compiles against its own diagnostic engine on the pool;
    // the ordered merge below restores input-order output, so the fan-out
    // is invisible in the rendered diagnostics at any job count.
    stats::ScopedTimer Timer(&Metrics, "phase.frontend_seconds");
    parallelFor(
        Opts.Jobs, N,
        [&](size_t I) {
          Out.Units[I] = frontend::compileUnit(Inputs[I].Name, Inputs[I].Text,
                                               CO, UnitDiags[I]);
        },
        nullptr, Opts.SharedPool);
  }
  Out.FrontEndOk = N > 0;
  pp::PpStats Pp;
  for (size_t I = 0; I < N; ++I) {
    const frontend::TUnit &U = Out.Units[I];
    reportUnitDiags(UnitDiags[I].takeDiagnostics(), U);
    Out.FrontEndOk = Out.FrontEndOk && U.FrontEndOk;
    Pp.Files += U.Pp.Stats.Files;
    Pp.Includes += U.Pp.Stats.Includes;
    Pp.MacrosDefined += U.Pp.Stats.MacrosDefined;
    Pp.Expansions += U.Pp.Stats.Expansions;
    Pp.Conditionals += U.Pp.Stats.Conditionals;
    Pp.LinesIn += U.Pp.Stats.LinesIn;
    Pp.LinesOut += U.Pp.Stats.LinesOut;
  }
  // Link even when a TU failed its front end: linkUnits skips unparsed
  // units, and partial-program link errors are still worth reporting.
  Out.LinkOk = frontend::linkUnits(Out.Units, Diags);
  publishFrontendMetrics(Out, Pp);
  publishDiagMetrics();
  return Out;
}

Session::CheckFilesOutcome
Session::checkFiles(const std::vector<frontend::InputFile> &Inputs) {
  CheckFilesOutcome Out;
  Out.Load = load(Inputs);
  if (!Out.Load.ok())
    return Out;
  {
    // Every TU's units go through one task graph; each unit's diagnostics
    // are remapped through its TU's line map as they merge, in input order.
    stats::ScopedTimer Timer(&Metrics, "phase.qualcheck_seconds");
    const std::vector<frontend::TUnit> &Units = Out.Load.Units;
    std::vector<cminus::Program *> Progs;
    for (const frontend::TUnit &U : Units)
      Progs.push_back(U.Program.get());
    Out.Result = checker::checkProgramsParallel(
        Progs, *QualsView,
        [&](size_t I, std::vector<Diagnostic> Ds) {
          reportUnitDiags(std::move(Ds), Units[I]);
        },
        Opts.Checker, Opts.Jobs, &Out.Pipeline, Opts.SharedPool);
  }
  publishCheckMetrics(true, Out.Result, Out.Pipeline);
  publishDiagMetrics();
  return Out;
}

Session::RecheckFilesOutcome
Session::recheckFiles(const std::vector<frontend::InputFile> &Inputs) {
  RecheckFilesOutcome Out;
  Out.Load = load(Inputs);
  if (!Out.Load.ok())
    return Out;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.qualcheck_seconds");
    checker::incremental::Engine &Engine = incrementalEngine();
    for (const frontend::TUnit &U : Out.Load.Units) {
      DiagnosticEngine UnitDiags;
      checker::incremental::RecheckStats RS;
      // The TU's post-preprocess stream hash re-keys every work item in
      // the unit: a header edit dirties every includer.
      checker::incremental::Hash128 Seed;
      Seed.A = U.Pp.StreamHashA;
      Seed.B = U.Pp.StreamHashB;
      // Snapshots are per TU: signature-change invalidation must diff a
      // TU against its own previous version, not a sibling's.
      std::string Unit = Opts.IncrementalUnit.empty()
                             ? U.Name
                             : Opts.IncrementalUnit + "/" + U.Name;
      checker::incremental::RecheckResult R =
          Engine.recheck(Unit, *U.Program, *QualsView, UnitDiags,
                         Opts.Checker, Opts.Jobs, &RS, Opts.SharedPool, &Seed);
      reportUnitDiags(UnitDiags.takeDiagnostics(), U);
      Out.Result.QualErrors += R.QualErrors;
      mergeCheckerStats(Out.Result.Stats, R.Stats);
      Out.Result.RuntimeCheckCount += R.RuntimeCheckCount;
      Out.Result.FailureCount += R.FailureCount;
      Out.Stats.Units += RS.Units;
      Out.Stats.Hits += RS.Hits;
      Out.Stats.Rechecked += RS.Rechecked;
      Out.Stats.SignatureDirtied += RS.SignatureDirtied;
      Out.Stats.Evictions += RS.Evictions;
      Out.Stats.Jobs = std::max(Out.Stats.Jobs, RS.Jobs);
      Out.Stats.Executed += RS.Executed;
      Out.Stats.Steals += RS.Steals;
    }
  }
  publishRecheckMetrics(true, Out.Result, Out.Stats);
  publishDiagMetrics();
  return Out;
}

checker::incremental::Engine &Session::incrementalEngine() {
  if (Opts.SharedIncremental)
    return *Opts.SharedIncremental;
  if (!OwnedIncremental)
    OwnedIncremental = std::make_unique<checker::incremental::Engine>();
  return *OwnedIncremental;
}

Session::RecheckOutcome Session::recheck(const std::string &Source) {
  RecheckOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  Out.Program = frontEnd(Source, Out.FrontEndOk);
  if (Out.FrontEndOk) {
    stats::ScopedTimer Timer(&Metrics, "phase.qualcheck_seconds");
    Out.Result = incrementalEngine().recheck(
        Opts.IncrementalUnit, *Out.Program, *QualsView, Diags, Opts.Checker,
        Opts.Jobs, &Out.Stats, Opts.SharedPool);
  }
  publishRecheckMetrics(Out.FrontEndOk, Out.Result, Out.Stats);
  publishDiagMetrics();
  return Out;
}

void Session::loadCacheFile() {
  if (Opts.CacheFile.empty() || CacheFileLoaded)
    return;
  CacheFileLoaded = true;
  // A missing file is the normal cold start; anything else that fails to
  // load (truncated, corrupt, wrong version header) is ignored with a
  // warning — a stale cache must never be trusted.
  std::ifstream Probe(Opts.CacheFile);
  if (!Probe)
    return;
  Probe.close();
  std::string Error;
  if (!CachePtr->load(Opts.CacheFile, &Error))
    Diags.warning(SourceLoc(), "driver", "prover cache file: " + Error);
}

void Session::saveCacheFile() {
  if (Opts.CacheFile.empty())
    return;
  std::string Error;
  if (!CachePtr->save(Opts.CacheFile, &Error) && !CacheSaveWarned) {
    // Warn once: prove() and proveQualifier() save after every call, and a
    // persistently unwritable path would otherwise repeat the warning.
    CacheSaveWarned = true;
    Diags.warning(SourceLoc(), "driver", "prover cache file: " + Error);
  }
}

std::vector<soundness::SoundnessReport> Session::prove() {
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return {};
  }
  loadCacheFile();
  unsigned Jobs = Opts.Jobs;
  if (Opts.WarmProverCache) {
    // A silent first pass: every obligation lands in the cache, so the
    // reported pass below replays entirely from it.
    soundness::SoundnessChecker Warm(*QualsView, Opts.Prover, nullptr,
                                     CachePtr, &Metrics, Opts.SharedPool);
    Warm.checkAll(Jobs);
  }
  std::vector<soundness::SoundnessReport> Reports;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.prove_seconds");
    soundness::SoundnessChecker SC(*QualsView, Opts.Prover, nullptr, CachePtr,
                                   &Metrics, Opts.SharedPool);
    Reports = SC.checkAll(Jobs);
  }
  saveCacheFile();
  publishProveMetrics(Reports);
  publishDiagMetrics();
  return Reports;
}

soundness::SoundnessReport Session::proveQualifier(const std::string &Name) {
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return {};
  }
  loadCacheFile();
  soundness::SoundnessReport Report;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.prove_seconds");
    soundness::SoundnessChecker SC(*QualsView, Opts.Prover, nullptr, CachePtr,
                                   &Metrics, Opts.SharedPool);
    Report = SC.checkQualifier(Name, Opts.Jobs);
  }
  saveCacheFile();
  publishProveMetrics({Report});
  publishDiagMetrics();
  return Report;
}

Session::RunOutcome Session::run(const std::string &Source) {
  RunOutcome Out;
  Out.Check = check(Source);
  if (!Out.Check.FrontEndOk || Diags.hasErrors()) {
    Out.Run.Status = interp::RunStatus::SetupError;
    Out.Run.TrapMessage = "front-end errors";
    return Out;
  }
  {
    stats::ScopedTimer Timer(&Metrics, "phase.execute_seconds");
    if (Opts.Backend == SessionOptions::ExecBackend::Vm) {
      vm::VmOptions VO;
      VO.Interp = Opts.Interp;
      VO.ElideChecks = Opts.VmElideChecks;
      // Elision hypotheses come from static qualifier types, which only
      // mean something on a program the checker accepted (Theorem 5.1).
      VO.ProgramCheckedClean = Out.Check.Result.ok();
      VO.Prover = Opts.Prover;
      VO.Cache = CachePtr;
      VO.Metrics = &Metrics;
      Out.Run = vm::runProgram(*Out.Check.Program, *QualsView,
                               Out.Check.Result.RuntimeChecks, VO);
    } else {
      Out.Run = interp::runProgram(*Out.Check.Program, *QualsView,
                                   Out.Check.Result.RuntimeChecks, Opts.Interp);
    }
  }
  publishRunMetrics(Out.Run);
  return Out;
}

Session::InferenceReport Session::infer(const std::string &Source) {
  InferenceReport Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  loadCacheFile();
  Out.Program = frontEnd(Source, Out.FrontEndOk);
  if (Out.FrontEndOk) {
    stats::ScopedTimer Timer(&Metrics, "phase.infer_seconds");
    checker::ConstraintInferenceOptions CI;
    CI.Scope = Opts.Infer.Scope;
    CI.Jobs = Opts.Jobs;
    CI.Pool = Opts.SharedPool;
    CI.Prover = Opts.Prover;
    CI.Cache = CachePtr;
    // Apply-mode always applies (and reports) the complete minimal set:
    // a truncated application is not guaranteed to re-check clean.
    CI.MaxSuggestions = Opts.Infer.Apply ? 0 : Opts.Infer.MaxSuggestions;
    CI.Checker = Opts.Checker;
    Out.Report = checker::inferWithConstraints(*Out.Program, *QualsView, CI);
    if (Opts.Infer.Apply) {
      checker::applyReport(*Out.Program, Out.Report);
      Out.AnnotatedSource = cminus::printProgram(*Out.Program);
    }
  }
  if (Out.FrontEndOk) {
    const checker::InferenceStats &S = Out.Report.Stats;
    Metrics.set("infer.units", S.Units);
    Metrics.set("infer.atoms", S.Atoms);
    Metrics.set("infer.constraints", S.Constraints);
    Metrics.set("infer.solve_rounds", S.SolveRounds);
    Metrics.set("infer.evaluations", S.Evaluations);
    Metrics.set("infer.dropped", S.Dropped);
    Metrics.set("infer.variables", S.Variables);
    Metrics.set("infer.suggestions", S.Suggested);
    Metrics.set("infer.prover_refinements", S.Implied);
    Metrics.set("infer.prover_queries", S.ProverQueries);
    // Warmth-dependent, so it lives here and not in the byte-stable
    // stq-inference-v1 document.
    Metrics.set("infer.prover_cache_hits", S.ProverCacheHits);
    // Historical names, kept for dashboards that predate the constraint
    // engine: all inferred pairs and the solve's round count.
    Metrics.set("infer.annotations", Out.Report.totalInferred());
    Metrics.set("infer.iterations", S.SolveRounds);
  }
  saveCacheFile();
  publishCacheMetrics();
  publishDiagMetrics();
  return Out;
}

void Session::publishCheckMetrics(bool FrontEndOk,
                                  const checker::CheckResult &Result,
                                  const checker::ParallelStats &Pipeline) {
  if (!FrontEndOk)
    return;
  const checker::CheckerStats &S = Result.Stats;
  Metrics.set("check.units", Pipeline.Units);
  Metrics.set("check.qual_errors", Result.QualErrors);
  Metrics.set("check.deref_sites", S.DerefSites);
  Metrics.set("check.restrict_checks", S.RestrictChecks);
  Metrics.set("check.restrict_failures", S.RestrictFailures);
  Metrics.set("check.assign_checks", S.AssignChecks);
  Metrics.set("check.assign_failures", S.AssignFailures);
  Metrics.set("check.ref_assign_checks", S.RefAssignChecks);
  Metrics.set("check.ref_assign_failures", S.RefAssignFailures);
  Metrics.set("check.disallow_failures", S.DisallowFailures);
  Metrics.set("check.casts_to_value_qualified", S.CastsToValueQualified);
  Metrics.set("check.casts_to_ref_qualified", S.CastsToRefQualified);
  Metrics.set("check.elided_cast_checks", S.ElidedCastChecks);
  Metrics.set("check.format_string_checks", S.FormatStringChecks);
  Metrics.set("check.runtime_checks", Result.RuntimeChecks.size());
  // Scheduling-dependent counters (see docs/OBSERVABILITY.md): the
  // hasQualifier memo is per checker instance, and pool accounting
  // depends on the job count by definition.
  Metrics.set("check.memo.has_qual_queries", S.HasQualQueries);
  Metrics.set("check.memo.hits", S.MemoHits);
  Metrics.set("pool.jobs", Pipeline.Jobs);
  Metrics.set("pool.executed", Pipeline.Executed);
  Metrics.set("pool.steals", Pipeline.Steals);
}

void Session::publishRecheckMetrics(
    bool FrontEndOk, const checker::incremental::RecheckResult &Result,
    const checker::incremental::RecheckStats &Stats) {
  if (!FrontEndOk)
    return;
  // The check.* counters mirror publishCheckMetrics exactly: a recheck is
  // the same verdict, so metrics-invariant counters must agree with a cold
  // check() byte for byte (the edit-replay harness pins this down).
  const checker::CheckerStats &S = Result.Stats;
  Metrics.set("check.units", Stats.Units);
  Metrics.set("check.qual_errors", Result.QualErrors);
  Metrics.set("check.deref_sites", S.DerefSites);
  Metrics.set("check.restrict_checks", S.RestrictChecks);
  Metrics.set("check.restrict_failures", S.RestrictFailures);
  Metrics.set("check.assign_checks", S.AssignChecks);
  Metrics.set("check.assign_failures", S.AssignFailures);
  Metrics.set("check.ref_assign_checks", S.RefAssignChecks);
  Metrics.set("check.ref_assign_failures", S.RefAssignFailures);
  Metrics.set("check.disallow_failures", S.DisallowFailures);
  Metrics.set("check.casts_to_value_qualified", S.CastsToValueQualified);
  Metrics.set("check.casts_to_ref_qualified", S.CastsToRefQualified);
  Metrics.set("check.elided_cast_checks", S.ElidedCastChecks);
  Metrics.set("check.format_string_checks", S.FormatStringChecks);
  Metrics.set("check.runtime_checks", Result.RuntimeCheckCount);
  Metrics.set("check.memo.has_qual_queries", S.HasQualQueries);
  Metrics.set("check.memo.hits", S.MemoHits);
  Metrics.set("pool.jobs", Stats.Jobs);
  Metrics.set("pool.executed", Stats.Executed);
  Metrics.set("pool.steals", Stats.Steals);
  // incremental.*: how much of the unit the store saved us. Scheduling- and
  // history-dependent by design, so they sit behind the same metrics
  // exclusion as pool.* (docs/OBSERVABILITY.md).
  checker::incremental::Engine &E = incrementalEngine();
  Metrics.set("incremental.units", Stats.Units);
  Metrics.set("incremental.hits", Stats.Hits);
  Metrics.set("incremental.rechecked", Stats.Rechecked);
  Metrics.set("incremental.sig_dirtied", Stats.SignatureDirtied);
  Metrics.set("incremental.evictions", Stats.Evictions);
  Metrics.set("incremental.store.entries", E.entries());
  Metrics.set("incremental.store.evictions", E.evictions());
}

void Session::publishFrontendMetrics(const LoadOutcome &Out,
                                     const pp::PpStats &Pp) {
  Metrics.set("pp.files", Pp.Files);
  Metrics.set("pp.includes", Pp.Includes);
  Metrics.set("pp.macros_defined", Pp.MacrosDefined);
  Metrics.set("pp.expansions", Pp.Expansions);
  Metrics.set("pp.conditionals", Pp.Conditionals);
  Metrics.set("pp.lines_in", Pp.LinesIn);
  Metrics.set("pp.lines_out", Pp.LinesOut);
  uint64_t Ok = 0;
  for (const frontend::TUnit &U : Out.Units)
    Ok += U.FrontEndOk;
  Metrics.set("frontend.units", Out.Units.size());
  Metrics.set("frontend.units_ok", Ok);
  Metrics.set("frontend.link_errors", Diags.countInPhase("link"));
}

void Session::publishProveMetrics(
    const std::vector<soundness::SoundnessReport> &Reports) {
  uint64_t Sound = 0, Unsound = 0, Flow = 0;
  for (const soundness::SoundnessReport &R : Reports) {
    if (R.IsFlowQualifier)
      ++Flow;
    else if (R.sound())
      ++Sound;
    else
      ++Unsound;
  }
  Metrics.set("prove.qualifiers", Reports.size());
  Metrics.set("prove.qualifiers_sound", Sound);
  Metrics.set("prove.qualifiers_unsound", Unsound);
  Metrics.set("prove.qualifiers_flow", Flow);
  publishCacheMetrics();
}

void Session::publishRunMetrics(const interp::RunResult &R) {
  Metrics.set("interp.steps", R.Steps);
  Metrics.set("interp.checks_executed", R.ChecksExecuted);
  Metrics.set("interp.check_failures", R.CheckFailures.size());
  Metrics.set("interp.format_violations", R.FormatViolations.size());
}

void Session::publishCacheMetrics() {
  prover::CacheStats CS = CachePtr->stats();
  Metrics.set("prover.cache.lookups", CS.Lookups);
  Metrics.set("prover.cache.hits", CS.Hits);
  Metrics.set("prover.cache.misses", CS.Misses);
  Metrics.set("prover.cache.insertions", CS.Insertions);
  Metrics.set("prover.cache.entries", CS.Entries);
  Metrics.set("prover.cache.contended", CS.Contended);
  Metrics.set("prover.cache.persist_loaded", CS.PersistLoaded);
  Metrics.set("prover.cache.persist_hits", CS.PersistHits);
  Metrics.setGauge("prover.cache.hit_rate", CS.hitRate());
  Metrics.setGauge("prover.cache.seconds_saved", CS.SecondsSaved);
}

void Session::publishDiagMetrics() {
  Metrics.set("diag.errors", Diags.errorCount());
  Metrics.set("diag.warnings", Diags.warningCount());
  Metrics.set("diag.total", Diags.diagnostics().size());
}

void Session::emitMetrics(std::ostream &OS, metrics::Format Format) {
  publishDiagMetrics();
  std::unique_ptr<metrics::MetricsEmitter> Emitter =
      metrics::MetricsEmitter::create(Format);
  Emitter->emit(Metrics.snapshot(), OS);
}
