//===- Exec.cpp -----------------------------------------------------------===//

#include "server/Exec.h"

#include "eval/PaperEval.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <mutex>
#include <sstream>

using namespace stq;
using namespace stq::server;

namespace {

/// Renders every collected diagnostic through the configured consumer
/// (text is byte-for-byte the historical stderr output).
void reportDiagnostics(Session &S, const Invocation &Inv, std::ostream &Err) {
  if (Inv.JsonDiagnostics) {
    JsonDiagnosticConsumer C(Err);
    for (const Diagnostic &D : S.diags().diagnostics())
      C.handleDiagnostic(D);
    C.finish();
    return;
  }
  TextDiagnosticConsumer C(Err);
  for (const Diagnostic &D : S.diags().diagnostics())
    C.handleDiagnostic(D);
}

void emitMetrics(Session &S, const Invocation &Inv, std::ostream &Out) {
  if (Inv.Metrics)
    S.emitMetrics(Out, Inv.MetricsFormat);
}

/// Frees a multi-input run's translation units under
/// phase.teardown_seconds, so --metrics shows what dropping them costs.
void releaseUnits(Session &S, std::vector<frontend::TUnit> &Units) {
  stats::ScopedTimer Timer(&S.metrics(), "phase.teardown_seconds");
  std::vector<frontend::TUnit>().swap(Units);
}

int execProve(Session &S, const Invocation &Inv, std::ostream &Out,
              std::ostream &Err) {
  if (!S.loadQualifiers()) {
    reportDiagnostics(S, Inv, Err);
    emitMetrics(S, Inv, Out);
    return 2;
  }
  auto Reports = S.prove();
  Out << soundness::formatReports(Reports);
  emitMetrics(S, Inv, Out);
  for (const auto &R : Reports)
    if (!R.sound())
      return 1;
  return 0;
}

int execCheck(Session &S, const Invocation &Inv, std::ostream &Out,
              std::ostream &Err) {
  Session::CheckOutcome OutC = S.check(Inv.Source);
  reportDiagnostics(S, Inv, Err);
  if (S.diags().hasErrors()) {
    emitMetrics(S, Inv, Out);
    return 2;
  }
  Out << "qualifier errors: " << OutC.Result.QualErrors
      << " (dereference sites " << OutC.Result.Stats.DerefSites
      << ", assignment checks " << OutC.Result.Stats.AssignChecks
      << ", run-time checks " << OutC.Result.RuntimeChecks.size() << ")\n";
  emitMetrics(S, Inv, Out);
  return OutC.Result.ok() ? 0 : 1;
}

/// Byte-identical to execCheck on the same source: the verdict line prints
/// the same counters, sourced from the incremental result's counts.
int execRecheck(Session &S, const Invocation &Inv, std::ostream &Out,
                std::ostream &Err) {
  Session::RecheckOutcome OutC = S.recheck(Inv.Source);
  reportDiagnostics(S, Inv, Err);
  if (S.diags().hasErrors()) {
    emitMetrics(S, Inv, Out);
    return 2;
  }
  Out << "qualifier errors: " << OutC.Result.QualErrors
      << " (dereference sites " << OutC.Result.Stats.DerefSites
      << ", assignment checks " << OutC.Result.Stats.AssignChecks
      << ", run-time checks " << OutC.Result.RuntimeCheckCount << ")\n";
  emitMetrics(S, Inv, Out);
  return OutC.Result.ok() ? 0 : 1;
}

/// The multi-TU variants print the same verdict line as execCheck /
/// execRecheck, with counters merged over every TU in input order — the
/// fuzz campaign's frontend oracle compares it byte-for-byte against the
/// flattened single-TU run.
int execCheckFiles(Session &S, const Invocation &Inv, std::ostream &Out,
                   std::ostream &Err) {
  Session::CheckFilesOutcome OutC = S.checkFiles(Inv.Inputs);
  reportDiagnostics(S, Inv, Err);
  releaseUnits(S, OutC.Load.Units);
  if (S.diags().hasErrors()) {
    emitMetrics(S, Inv, Out);
    return 2;
  }
  Out << "qualifier errors: " << OutC.Result.QualErrors
      << " (dereference sites " << OutC.Result.Stats.DerefSites
      << ", assignment checks " << OutC.Result.Stats.AssignChecks
      << ", run-time checks " << OutC.Result.RuntimeChecks.size() << ")\n";
  emitMetrics(S, Inv, Out);
  return OutC.Result.ok() ? 0 : 1;
}

int execRecheckFiles(Session &S, const Invocation &Inv, std::ostream &Out,
                     std::ostream &Err) {
  Session::RecheckFilesOutcome OutC = S.recheckFiles(Inv.Inputs);
  reportDiagnostics(S, Inv, Err);
  releaseUnits(S, OutC.Load.Units);
  if (S.diags().hasErrors()) {
    emitMetrics(S, Inv, Out);
    return 2;
  }
  Out << "qualifier errors: " << OutC.Result.QualErrors
      << " (dereference sites " << OutC.Result.Stats.DerefSites
      << ", assignment checks " << OutC.Result.Stats.AssignChecks
      << ", run-time checks " << OutC.Result.RuntimeCheckCount << ")\n";
  emitMetrics(S, Inv, Out);
  return OutC.Result.ok() ? 0 : 1;
}

/// The stqd `eval` command: checks one shipped corpus program and returns
/// its table row in the stq-eval-row-v1 wire format. No rendering happens
/// here — the stq-eval client parses the row and renders tables/JSON
/// itself, so daemon-backed runs are byte-identical to one-shot runs.
int execEval(const Invocation &Inv, const SessionOptions &SOpts,
             std::ostream &Out, std::ostream &Err) {
  if (Inv.Inputs.empty() || !Inv.HasFiles) {
    Err << "stqc: eval requires shipped units and a shipped file closure\n";
    return 2;
  }
  eval::ProgramSpec Spec;
  Spec.Name = Inv.EvalName;
  Spec.Kind = Inv.EvalKind;
  Spec.Files = Inv.Files;
  for (const frontend::InputFile &In : Inv.Inputs) {
    Spec.Units.push_back(In.Name);
    Spec.Files[In.Name] = In.Text;
  }
  if (!SOpts.IncludeDirs.empty())
    Spec.IncludeDirs = SOpts.IncludeDirs;
  std::string Quals;
  for (const std::string &Src : SOpts.QualSources) {
    Quals += Src;
    if (!Src.empty() && Src.back() != '\n')
      Quals += '\n';
  }
  Spec.QualFileText = Quals;
  eval::EvalRow Row = eval::evalProgram(Spec, SOpts);
  Out << eval::renderRow(Row);
  return Row.ExitCode;
}

int execRun(Session &S, const Invocation &Inv, std::ostream &Out,
            std::ostream &Err) {
  Session::RunOutcome O = S.run(Inv.Source);
  reportDiagnostics(S, Inv, Err);
  const interp::RunResult &R = O.Run;
  if (!R.Output.empty())
    Out << R.Output;
  int Code = 2;
  switch (R.Status) {
  case interp::RunStatus::Ok:
    Out << "[exit " << static_cast<long>(*R.ExitValue) << "]\n";
    Code = static_cast<int>(*R.ExitValue & 0xff);
    break;
  case interp::RunStatus::CheckFailure:
    for (const auto &F : R.CheckFailures)
      Err << "fatal: run-time qualifier check failed at " << F.Loc.str()
          << ": value " << F.ValueStr << " does not satisfy '" << F.Qual
          << "'\n";
    Code = 3;
    break;
  case interp::RunStatus::Trap:
    Err << "trap: " << R.TrapMessage << "\n";
    Code = 4;
    break;
  case interp::RunStatus::FuelExhausted:
    Err << "error: step budget exhausted\n";
    Code = 5;
    break;
  case interp::RunStatus::SetupError:
    Err << "error: " << R.TrapMessage << "\n";
    Code = 2;
    break;
  }
  emitMetrics(S, Inv, Out);
  return Code;
}

/// Renders an inference report as the versioned `stq-inference-v1` JSON
/// document (one line, deterministic member order — the writer preserves
/// insertion order and the suggestions are already sorted by key).
json::Value inferenceReportJson(const Session::InferenceReport &O,
                                const SessionOptions &Opts) {
  json::Value Doc = json::Value::object();
  Doc.set("schema", json::Value::str("stq-inference-v1"));
  // There is one engine; the member stays so the schema stays v1.
  Doc.set("engine", json::Value::str("constraints"));
  Doc.set("scope", json::Value::str(checker::scopeName(Opts.Infer.Scope)));
  json::Value Suggestions = json::Value::array();
  for (const checker::InferenceSuggestion &Sug : O.Report.Suggestions) {
    json::Value E = json::Value::object();
    E.set("unit", json::Value::integer(Sug.Unit));
    E.set("function", json::Value::str(Sug.Function));
    E.set("var", json::Value::str(Sug.Var));
    E.set("kind", json::Value::str(Sug.Kind));
    E.set("line", json::Value::integer(Sug.Loc.Line));
    E.set("col", json::Value::integer(Sug.Loc.Col));
    json::Value Quals = json::Value::array();
    for (const checker::SuggestedQual &Q : Sug.Quals) {
      json::Value QV = json::Value::object();
      QV.set("qual", json::Value::str(Q.Qual));
      QV.set("provenance", json::Value::str(Q.Provenance));
      QV.set("implied", json::Value::boolean(Q.Implied));
      Quals.push(std::move(QV));
    }
    E.set("quals", std::move(Quals));
    Suggestions.push(std::move(E));
  }
  Doc.set("suggestions", std::move(Suggestions));
  const checker::InferenceStats &St = O.Report.Stats;
  json::Value Stats = json::Value::object();
  Stats.set("units", json::Value::integer(St.Units));
  Stats.set("atoms", json::Value::integer(St.Atoms));
  Stats.set("constraints", json::Value::integer(St.Constraints));
  Stats.set("solve_rounds", json::Value::integer(St.SolveRounds));
  Stats.set("evaluations",
            json::Value::integer(static_cast<int64_t>(St.Evaluations)));
  Stats.set("dropped", json::Value::integer(St.Dropped));
  Stats.set("variables", json::Value::integer(St.Variables));
  Stats.set("suggested", json::Value::integer(St.Suggested));
  Stats.set("implied", json::Value::integer(St.Implied));
  Stats.set("prover_queries", json::Value::integer(St.ProverQueries));
  // Cache-hit counts are deliberately absent: they depend on server
  // warmth, and the document is byte-identical one-shot vs daemon. They
  // ride in the per-session metrics instead.
  Stats.set("truncated", json::Value::integer(St.Truncated));
  Doc.set("stats", std::move(Stats));
  Doc.set("applied", json::Value::boolean(Opts.Infer.Apply));
  if (Opts.Infer.Apply)
    Doc.set("annotated_source", json::Value::str(O.AnnotatedSource));
  return Doc;
}

int execInfer(Session &S, const Invocation &Inv, std::ostream &Out,
              std::ostream &Err) {
  Session::InferenceReport O = S.infer(Inv.Source);
  if (!O.FrontEndOk || S.diags().hasErrors()) {
    reportDiagnostics(S, Inv, Err);
    emitMetrics(S, Inv, Out);
    return 2;
  }
  const SessionOptions &Opts = S.options();
  if (Inv.InferJson) {
    Out << inferenceReportJson(O, Opts).write() << "\n";
  } else if (Opts.Infer.Apply) {
    // Apply-mode text output is the annotated program itself, so the
    // result can be piped straight back into `stqc check`.
    Out << O.AnnotatedSource;
  } else {
    for (const checker::InferenceSuggestion &Sug : O.Report.Suggestions) {
      std::string List, Also;
      for (const checker::SuggestedQual &Q : Sug.Quals) {
        std::string &Dst = Q.Implied ? Also : List;
        Dst += (Dst.empty() ? "" : " ") +
               (Q.Implied ? Q.Qual + " [" + Q.Provenance + "]" : Q.Qual);
      }
      Out << Sug.Loc.str() << ": " << Sug.Kind << " '" << Sug.Var
          << "' may be annotated: " << List;
      if (!Also.empty())
        Out << " (also " << Also << ")";
      Out << "\n";
    }
    const checker::InferenceStats &St = O.Report.Stats;
    Out << "inferred " << O.Report.totalSuggested() << " annotation(s) on "
        << St.Variables << " variable(s) [engine constraints, "
        << St.Constraints << " constraint(s), " << St.SolveRounds
        << " round(s), " << St.Implied << " implied";
    if (St.Truncated)
      Out << ", " << St.Truncated << " over budget";
    Out << "]\n";
  }
  emitMetrics(S, Inv, Out);
  return 0;
}

bool needsSource(const std::string &Command) {
  return Command == "check" || Command == "recheck" || Command == "run" ||
         Command == "infer";
}

} // namespace

bool stq::server::knownCommand(const std::string &Command) {
  return Command == "prove" || Command == "eval" || needsSource(Command);
}

ExecResult stq::server::executeInvocation(const Invocation &Inv,
                                          const SharedContext &Shared) {
  ExecResult R;
  std::ostringstream Out, Err;

  SessionOptions SOpts = Inv.Session;
  SOpts.SharedPool = Shared.Pool;
  if (Shared.Cache) {
    SOpts.SharedCache = Shared.Cache;
    // The cache owner persists; a per-request load/save would race it.
    SOpts.CacheFile.clear();
  }
  if (Shared.Qualifiers && SOpts.Builtins.empty() &&
      SOpts.QualFiles.empty() && SOpts.QualSources.empty())
    SOpts.SharedQualifiers = Shared.Qualifiers;
  if (Shared.Incremental)
    SOpts.SharedIncremental = Shared.Incremental;

  if (!knownCommand(Inv.Command)) {
    Err << "stqc: unknown command '" << Inv.Command << "'\n";
    R.Err = Err.str();
    return R;
  }
  const bool MultiInput = !Inv.Inputs.empty();
  if (needsSource(Inv.Command) && !Inv.HasSource && !MultiInput) {
    Err << "stqc: no input (pass FILE or -e SRC)\n";
    R.Err = Err.str();
    return R;
  }
  if (MultiInput) {
    if (Inv.Command != "check" && Inv.Command != "recheck" &&
        Inv.Command != "eval") {
      Err << "stqc: multiple input files are only supported by check, "
             "recheck, and eval\n";
      R.Err = Err.str();
      return R;
    }
    // The shipped closure (daemon requests) wins over the filesystem, so
    // the server never touches client paths.
    if (Inv.HasFiles)
      SOpts.ShippedFiles = &Inv.Files;
  }

  // eval owns its Session (evalProgram builds it from the spec plus the
  // shared state carried in SOpts), so it dispatches before the generic
  // per-request Session below.
  if (Inv.Command == "eval") {
    R.ExitCode = execEval(Inv, SOpts, Out, Err);
    R.Out = Out.str();
    R.Err = Err.str();
    return R;
  }

  // The tracer is process-global, so traced invocations serialize: two
  // concurrent requests must not interleave their spans.
  static std::mutex TraceM;
  std::unique_lock<std::mutex> TraceLock;
  if (Inv.Trace) {
    TraceLock = std::unique_lock<std::mutex>(TraceM);
    trace::Tracer::start();
  }

  {
    Session S(SOpts);
    if (Inv.Command == "prove")
      R.ExitCode = execProve(S, Inv, Out, Err);
    else if (Inv.Command == "check")
      R.ExitCode = MultiInput ? execCheckFiles(S, Inv, Out, Err)
                              : execCheck(S, Inv, Out, Err);
    else if (Inv.Command == "recheck")
      R.ExitCode = MultiInput ? execRecheckFiles(S, Inv, Out, Err)
                              : execRecheck(S, Inv, Out, Err);
    else if (Inv.Command == "run")
      R.ExitCode = execRun(S, Inv, Out, Err);
    else
      R.ExitCode = execInfer(S, Inv, Out, Err);
  }

  if (Inv.Trace) {
    std::vector<trace::TraceEvent> Events = trace::Tracer::stop();
    std::ostringstream TS;
    metrics::writeChromeTrace(Events, TS);
    R.TraceJson = TS.str();
  }
  R.Out = Out.str();
  R.Err = Err.str();
  return R;
}
