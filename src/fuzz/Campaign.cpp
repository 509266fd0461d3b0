//===- Campaign.cpp -------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "checker/ConstraintInference.h"
#include "checker/Incremental.h"
#include "checker/Inference.h"
#include "cminus/Printer.h"
#include "fuzz/EditGen.h"
#include "fuzz/Mutator.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/ProverSessionGen.h"
#include "fuzz/QualGen.h"
#include "fuzz/Shrinker.h"
#include "server/Exec.h"
#include "support/MetricsEmitter.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

using namespace stq;
using namespace stq::fuzz;

namespace {

/// Everything a scenario needs to report into. Pool/Cache model the warm
/// stqd process state for the server-path byte-identity comparison; they
/// may be null (corpus replay), which skips that comparison.
struct OracleContext {
  const CampaignOptions &Opts;
  stats::Registry &Stats;
  CampaignResult &Result;
  std::ostream *Log;
  ThreadPool *Pool = nullptr;
  prover::ProverCache *Cache = nullptr;
};

std::string trunc(const std::string &S, size_t Max = 400) {
  if (S.size() <= Max)
    return S;
  return S.substr(0, Max) + "...[truncated]";
}

void reportFailure(OracleContext &C, FuzzFailure F) {
  C.Stats.add("fuzz.oracle." + F.Oracle + "_violations", 1);
  if (C.Log)
    *C.Log << "fuzz: " << F.Oracle << " violation (" << F.Kind << ", seed "
           << F.RunSeed << "): " << F.Detail << "\n";
  C.Result.Failures.push_back(std::move(F));
}

/// Shrinks a failing text input, metering predicate evaluations.
std::string minimized(OracleContext &C, const std::string &Input,
                      const FailurePredicate &StillFails) {
  if (!C.Opts.Minimize)
    return Input;
  unsigned Evals = 0;
  std::string Out = shrink(
      Input,
      [&](const std::string &Candidate) {
        ++Evals;
        return StillFails(Candidate);
      },
      500);
  C.Stats.add("fuzz.shrink.evals", Evals);
  return Out;
}

//===----------------------------------------------------------------------===//
// check invocations (the metamorphic oracle's subject)
//===----------------------------------------------------------------------===//

server::ExecResult checkInvocation(const std::string &Source, unsigned Jobs,
                                   const server::SharedContext &Shared = {}) {
  server::Invocation Inv;
  Inv.Command = "check";
  Inv.Source = Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = programQualifiers();
  Inv.Session.Jobs = Jobs;
  return server::executeInvocation(Inv, Shared);
}

/// `check` with an explicit builtin set (edit scripts change theirs).
server::ExecResult checkStep(const EditScript::Step &Step, unsigned Jobs) {
  server::Invocation Inv;
  Inv.Command = "check";
  Inv.Source = Step.Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = Step.Builtins;
  Inv.Session.Jobs = Jobs;
  return server::executeInvocation(Inv);
}

/// `recheck` against a warm engine — the incremental side of the
/// edit-replay differential.
server::ExecResult recheckStep(const EditScript::Step &Step, unsigned Jobs,
                               checker::incremental::Engine *Engine,
                               ThreadPool *Pool) {
  server::Invocation Inv;
  Inv.Command = "recheck";
  Inv.Source = Step.Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = Step.Builtins;
  Inv.Session.Jobs = Jobs;
  Inv.Session.IncrementalUnit = "fuzz";
  server::SharedContext Shared;
  Shared.Incremental = Engine;
  Shared.Pool = Pool;
  return server::executeInvocation(Inv, Shared);
}

bool sameExec(const server::ExecResult &A, const server::ExecResult &B) {
  return A.ExitCode == B.ExitCode && A.Out == B.Out && A.Err == B.Err;
}

std::string describeExecDiff(const server::ExecResult &A,
                             const server::ExecResult &B, const char *AName,
                             const char *BName) {
  std::ostringstream OS;
  OS << AName << " exit=" << A.ExitCode << " vs " << BName
     << " exit=" << B.ExitCode;
  if (A.Out != B.Out)
    OS << "; stdout differs:\n--- " << AName << "\n" << trunc(A.Out)
       << "\n--- " << BName << "\n" << trunc(B.Out);
  if (A.Err != B.Err)
    OS << "; stderr differs:\n--- " << AName << "\n" << trunc(A.Err)
       << "\n--- " << BName << "\n" << trunc(B.Err);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// VM differential oracle
//===----------------------------------------------------------------------===//

/// The complete observable surface of one execution, rendered for byte
/// comparison. \p IncludeCheckCount is dropped when comparing elision
/// on/off: discharged guards legitimately stop counting as executed
/// checks; everything else must still match exactly.
std::string formatRunResult(const interp::RunResult &R,
                            bool IncludeCheckCount) {
  std::ostringstream OS;
  OS << "status=" << static_cast<int>(R.Status) << "\n";
  if (R.ExitValue)
    OS << "exit=" << *R.ExitValue << "\n";
  OS << "output=[" << R.Output << "]\n";
  OS << "trap=[" << R.TrapMessage << "]\n";
  for (const interp::CheckFailure &F : R.CheckFailures)
    OS << "check-failure " << F.Loc.str() << " '" << F.Qual << "' "
       << F.ValueStr << "\n";
  for (const interp::FormatViolation &V : R.FormatViolations)
    OS << "format-violation " << V.Loc.str() << " [" << V.Format << "] "
       << V.Supplied << "/" << V.Consumed << "\n";
  for (const interp::CheckFailure &F : R.AuditFailures)
    OS << "audit-failure " << F.Loc.str() << " '" << F.Qual << "' "
       << F.ValueStr << "\n";
  OS << "steps=" << R.Steps << "\n";
  OS << "audit-checks=" << R.AuditChecks << "\n";
  if (IncludeCheckCount)
    OS << "checks-executed=" << R.ChecksExecuted << "\n";
  return OS.str();
}

/// One execution through the Session pipeline on the given backend.
/// Returns false (no dump) when the front end rejects the program.
bool backendRunDump(const std::string &Source, uint64_t Fuel,
                    SessionOptions::ExecBackend Backend, bool Elide,
                    bool IncludeCheckCount, std::string &Dump) {
  SessionOptions SO;
  SO.Builtins = programQualifiers();
  SO.Interp.AuditQualifiedStores = true;
  SO.Interp.Fuel = Fuel;
  SO.Backend = Backend;
  SO.VmElideChecks = Elide;
  Session S(SO);
  Session::RunOutcome Out = S.run(Source);
  if (!Out.Check.FrontEndOk)
    return false;
  Dump = formatRunResult(Out.Run, IncludeCheckCount);
  return true;
}

bool vmDifferentialViolation(const std::string &Source, uint64_t Fuel,
                             std::string *Kind, std::string *Why) {
  std::string Interp, VmOff, VmOn;
  if (!backendRunDump(Source, Fuel, SessionOptions::ExecBackend::Interp,
                      /*Elide=*/false, /*IncludeCheckCount=*/true, Interp))
    return false;
  if (!backendRunDump(Source, Fuel, SessionOptions::ExecBackend::Vm,
                      /*Elide=*/false, /*IncludeCheckCount=*/true, VmOff)) {
    if (Kind)
      *Kind = "vm-frontend-divergence";
    if (Why)
      *Why = "front end accepted for interp but not for vm";
    return true;
  }
  // Interpreter vs VM without elision: everything matches, including the
  // executed-check count.
  if (Interp != VmOff) {
    if (Kind)
      *Kind = "backend-mismatch";
    if (Why)
      *Why = "interp vs vm (elision off):\n--- interp\n" + trunc(Interp) +
             "\n--- vm\n" + trunc(VmOff);
    return true;
  }
  // Elision on vs off: observable behavior identical (check count aside).
  std::string VmOffNoCount, VmOnNoCount;
  backendRunDump(Source, Fuel, SessionOptions::ExecBackend::Vm,
                 /*Elide=*/false, /*IncludeCheckCount=*/false, VmOffNoCount);
  if (!backendRunDump(Source, Fuel, SessionOptions::ExecBackend::Vm,
                      /*Elide=*/true, /*IncludeCheckCount=*/false,
                      VmOnNoCount))
    return false;
  if (VmOffNoCount != VmOnNoCount) {
    if (Kind)
      *Kind = "elision-mismatch";
    if (Why)
      *Why = "vm elision off vs on:\n--- off\n" + trunc(VmOffNoCount) +
             "\n--- on\n" + trunc(VmOnNoCount);
    return true;
  }
  return false;
}

/// The seventh oracle: the bytecode VM against the tree-walking
/// interpreter on the identical program, byte for byte, then the VM
/// against itself with check elision enabled.
void vmOracle(const std::string &Source, uint64_t RunSeed, OracleContext &C) {
  C.Stats.add("fuzz.vm.runs", 1);
  std::string Kind, Why;
  if (!vmDifferentialViolation(Source, C.Opts.Fuel, &Kind, &Why))
    return;
  C.Stats.add("fuzz.vm.mismatches", 1);
  uint64_t Fuel = C.Opts.Fuel;
  FuzzFailure F;
  F.Oracle = "vm";
  F.Kind = Kind;
  F.RunSeed = RunSeed;
  F.Detail = Why;
  F.Input = minimized(C, Source, [Fuel](const std::string &Text) {
    std::string K, W;
    return vmDifferentialViolation(Text, Fuel, &K, &W);
  });
  reportFailure(C, std::move(F));
}

//===----------------------------------------------------------------------===//
// C-minus program oracles
//===----------------------------------------------------------------------===//

/// Jobs differential + server path + (when accepted) the Theorem 5.1
/// audit. Shared by generated programs and corpus replays.
void cmmOracles(const std::string &Source, uint64_t RunSeed,
                OracleContext &C) {
  server::ExecResult Seq = checkInvocation(Source, 1);
  server::ExecResult Par = checkInvocation(Source, C.Opts.Jobs);
  if (!sameExec(Seq, Par)) {
    unsigned Jobs = C.Opts.Jobs;
    FuzzFailure F;
    F.Oracle = "metamorphic";
    F.Kind = "jobs-mismatch";
    F.RunSeed = RunSeed;
    F.Detail = describeExecDiff(Seq, Par, "jobs=1", "jobs=N");
    F.Input = minimized(C, Source, [Jobs](const std::string &S) {
      return !sameExec(checkInvocation(S, 1), checkInvocation(S, Jobs));
    });
    reportFailure(C, std::move(F));
    return;
  }

  // The stqd execution path: same invocation against warm shared state
  // must stay byte-identical.
  if (C.Pool && C.Cache) {
    server::SharedContext Shared;
    Shared.Pool = C.Pool;
    Shared.Cache = C.Cache;
    server::ExecResult Srv = checkInvocation(Source, C.Opts.Jobs, Shared);
    if (!sameExec(Par, Srv)) {
      FuzzFailure F;
      F.Oracle = "metamorphic";
      F.Kind = "server-mismatch";
      F.RunSeed = RunSeed;
      F.Input = Source;
      F.Detail = describeExecDiff(Par, Srv, "local", "shared-context");
      reportFailure(C, std::move(F));
      return;
    }
  }

  if (Seq.ExitCode != 0) {
    C.Stats.add("fuzz.check.rejected", 1);
    return;
  }
  C.Stats.add("fuzz.check.accepted", 1);

  // Accepted programs also feed the VM differential: both back ends (and
  // elision on/off) must agree byte for byte before the audit runs.
  vmOracle(Source, RunSeed, C);

  // Theorem 5.1: the accepted program runs with the invariant audit armed.
  SessionOptions SO;
  SO.Builtins = programQualifiers();
  SO.Interp.AuditQualifiedStores = true;
  SO.Interp.Fuel = C.Opts.Fuel;
  Session S(SO);
  Session::RunOutcome Out = S.run(Source);
  C.Stats.add("fuzz.exec.runs", 1);
  C.Stats.add("fuzz.audit.checks", Out.Run.AuditChecks);
  switch (Out.Run.Status) {
  case interp::RunStatus::Trap: {
    // An accepted program has no legal trap, whatever mode generated it:
    // the nonnull restrict guards every dereference and the nonzero
    // restrict guards every `/` and `%` divisor. (This oracle caught the
    // missing `%` restrict; see tests/corpus/rem_zero_divisor.cmm.)
    FuzzFailure F;
    F.Oracle = "soundness";
    F.Kind = "trap";
    F.RunSeed = RunSeed;
    F.Input = Source;
    F.Detail = "accepted program trapped: " + Out.Run.TrapMessage;
    C.Stats.add("fuzz.exec.traps", 1);
    reportFailure(C, std::move(F));
    break;
  }
  case interp::RunStatus::FuelExhausted:
    C.Stats.add("fuzz.exec.fuel_exhausted", 1);
    break;
  case interp::RunStatus::CheckFailure:
    // A failing run-time check at a cast is the paper's sanctioned
    // dynamic semantics, not a soundness violation.
    C.Stats.add("fuzz.exec.check_failures", 1);
    break;
  default:
    break;
  }
  if (!Out.Run.AuditFailures.empty()) {
    const interp::CheckFailure &A = Out.Run.AuditFailures.front();
    uint64_t Fuel = C.Opts.Fuel;
    FuzzFailure F;
    F.Oracle = "soundness";
    F.Kind = "audit-violation";
    F.RunSeed = RunSeed;
    F.Detail = "invariant of '" + A.Qual + "' violated by value " +
               A.ValueStr + " at line " + std::to_string(A.Loc.Line) +
               " in a checker-accepted program";
    F.Input = minimized(C, Source, [Fuel](const std::string &Text) {
      if (checkInvocation(Text, 1).ExitCode != 0)
        return false;
      SessionOptions MO;
      MO.Builtins = programQualifiers();
      MO.Interp.AuditQualifiedStores = true;
      MO.Interp.Fuel = Fuel;
      Session MS(MO);
      return !MS.run(Text).Run.AuditFailures.empty();
    });
    reportFailure(C, std::move(F));
  }
}

//===----------------------------------------------------------------------===//
// Qualifier-set oracles
//===----------------------------------------------------------------------===//

bool reportsDiffer(const std::vector<soundness::SoundnessReport> &A,
                   const std::vector<soundness::SoundnessReport> &B,
                   std::string &Why) {
  if (A.size() != B.size()) {
    Why = "report count " + std::to_string(A.size()) + " vs " +
          std::to_string(B.size());
    return true;
  }
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].Obligations.size() != B[I].Obligations.size()) {
      Why = A[I].Qual + ": obligation count differs";
      return true;
    }
    for (size_t J = 0; J < A[I].Obligations.size(); ++J) {
      const soundness::Obligation &X = A[I].Obligations[J];
      const soundness::Obligation &Y = B[I].Obligations[J];
      if (X.Result != Y.Result || X.Description != Y.Description) {
        Why = X.Qual + ": " + X.Description + " -> " +
              std::to_string(static_cast<int>(X.Result)) + " vs " +
              std::to_string(static_cast<int>(Y.Result));
        return true;
      }
    }
  }
  return false;
}

std::vector<soundness::SoundnessReport>
proveQualSource(const std::string &Src, prover::EngineKind Engine,
                prover::ProverCache *SharedCache = nullptr) {
  SessionOptions SO;
  SO.QualSources = {Src};
  SO.Prover.Engine = Engine;
  SO.SharedCache = SharedCache;
  Session S(SO);
  if (!S.loadQualifiers())
    return {};
  return S.prove();
}

/// Load + engine differential + warm-cache replay; for generated sets that
/// prove fully sound, the derivable-constant program closes the loop with
/// an audited execution. \p Set is null for corpus files (which may be
/// deliberately malformed robustness inputs, so a load failure is fine).
void qualSetOracles(const std::string &Src, const GeneratedQualSet *Set,
                    uint64_t RunSeed, OracleContext &C) {
  SessionOptions SO;
  SO.QualSources = {Src};
  Session S(SO);
  if (!S.loadQualifiers()) {
    if (Set) {
      // The generator promises well-formed output; a reject means the
      // generator or the DSL front end broke its contract.
      std::ostringstream OS;
      S.diags().print(OS);
      FuzzFailure F;
      F.Oracle = "robustness";
      F.Kind = "qualgen-reject";
      F.RunSeed = RunSeed;
      F.Input = Src;
      F.Detail = "generated qualifier set failed to load:\n" + trunc(OS.str());
      reportFailure(C, std::move(F));
    }
    return;
  }

  std::vector<soundness::SoundnessReport> Inc = S.prove();
  std::vector<soundness::SoundnessReport> Ref =
      proveQualSource(Src, prover::EngineKind::Reference);
  std::string Why;
  if (reportsDiffer(Inc, Ref, Why)) {
    FuzzFailure F;
    F.Oracle = "engine-differential";
    F.Kind = "verdict-mismatch";
    F.RunSeed = RunSeed;
    F.Detail = "incremental vs reference: " + Why;
    F.Input = minimized(C, Src, [](const std::string &Text) {
      std::vector<soundness::SoundnessReport> A =
          proveQualSource(Text, prover::EngineKind::Incremental);
      if (A.empty())
        return false;
      std::vector<soundness::SoundnessReport> B =
          proveQualSource(Text, prover::EngineKind::Reference);
      std::string W;
      return reportsDiffer(A, B, W);
    });
    reportFailure(C, std::move(F));
    return;
  }

  // Warm replay from this session's populated cache: verdicts must match
  // the cold pass exactly.
  std::vector<soundness::SoundnessReport> Warm = proveQualSource(
      Src, prover::EngineKind::Incremental, &S.proverCache());
  if (reportsDiffer(Inc, Warm, Why)) {
    FuzzFailure F;
    F.Oracle = "metamorphic";
    F.Kind = "warm-cache-mismatch";
    F.RunSeed = RunSeed;
    F.Input = Src;
    F.Detail = "cold vs warm-cache re-proof: " + Why;
    reportFailure(C, std::move(F));
    return;
  }

  if (!Set)
    return;
  bool AllSound = !Inc.empty();
  for (const soundness::SoundnessReport &Report : Inc)
    AllSound = AllSound && Report.sound();
  if (!AllSound)
    return;

  // The prover vouched for the set; Theorem 5.1 now covers programs over
  // it, so a derivable-constant program must run audit-clean.
  std::string Prog = "int main() {\n";
  unsigned Decls = 0;
  for (const GeneratedQualifier &Q : Set->Quals) {
    long Const = 0;
    if (!derivableConst(Q, Const))
      continue;
    Prog += "  int " + Q.Name + " x" + std::to_string(Decls++) + " = " +
            std::to_string(Const) + ";\n";
  }
  Prog += "  return 0;\n}\n";
  if (Decls == 0)
    return;
  SessionOptions PO;
  PO.QualSources = {Src};
  PO.Interp.AuditQualifiedStores = true;
  PO.Interp.Fuel = C.Opts.Fuel;
  Session PS(PO);
  Session::RunOutcome Out = PS.run(Prog);
  if (!Out.Check.FrontEndOk || Out.Check.Result.QualErrors > 0) {
    // Incompleteness (a conservative reject) is not a soundness bug.
    C.Stats.add("fuzz.check.rejected", 1);
    return;
  }
  C.Stats.add("fuzz.check.accepted", 1);
  C.Stats.add("fuzz.exec.runs", 1);
  C.Stats.add("fuzz.audit.checks", Out.Run.AuditChecks);
  if (!Out.Run.AuditFailures.empty()) {
    const interp::CheckFailure &A = Out.Run.AuditFailures.front();
    FuzzFailure F;
    F.Oracle = "soundness";
    F.Kind = "audit-violation-proved-set";
    F.RunSeed = RunSeed;
    F.Input = Src + "\n// program:\n" + Prog;
    F.Detail = "prover declared the set sound, yet invariant of '" + A.Qual +
               "' was violated by value " + A.ValueStr;
    reportFailure(C, std::move(F));
  }
}

//===----------------------------------------------------------------------===//
// Edit-replay oracles
//===----------------------------------------------------------------------===//

/// The session counters that must not depend on *how* a verdict was
/// produced: the snapshot's counters with scheduling-dependent prefixes
/// (pool.*, incremental.*, ...) erased. Zero-valued entries
/// are dropped too — warm and cold paths may materialize different zero
/// counters, and 0-vs-absent is presentational, not semantic.
std::map<std::string, uint64_t>
invariantCounters(const stats::Registry &Metrics) {
  std::map<std::string, uint64_t> Counters = Metrics.snapshot().Counters;
  for (auto It = Counters.begin(); It != Counters.end();) {
    bool Drop = It->second == 0;
    for (const std::string &P :
         metrics::schedulingDependentCounterPrefixes())
      Drop = Drop || It->first.rfind(P, 0) == 0;
    It = Drop ? Counters.erase(It) : std::next(It);
  }
  return Counters;
}

std::string describeCounterDiff(const std::map<std::string, uint64_t> &Warm,
                                const std::map<std::string, uint64_t> &Cold) {
  for (const auto &KV : Warm) {
    auto It = Cold.find(KV.first);
    if (It == Cold.end())
      return "'" + KV.first + "' only in warm (" +
             std::to_string(KV.second) + ")";
    if (It->second != KV.second)
      return "'" + KV.first + "': warm " + std::to_string(KV.second) +
             " vs cold " + std::to_string(It->second);
  }
  for (const auto &KV : Cold)
    if (!Warm.count(KV.first))
      return "'" + KV.first + "' only in cold (" +
             std::to_string(KV.second) + ")";
  return "identical";
}

/// The edit-replay differential: replays \p Text as an edit script, with
/// every step's warm `recheck` (fresh incremental engine at step 0, warm
/// thereafter) byte-compared against a cold one-shot `check`, then a
/// second replay comparing the metrics-invariant session counters the two
/// paths publish. Returns true and fills \p Kind/\p Why on the first
/// divergence. \p Pool may be null (shrinking, corpus replay).
bool editScriptViolation(const std::string &Text, const CampaignOptions &Opts,
                         ThreadPool *Pool, std::string *Kind,
                         std::string *Why) {
  EditScript Script = parseEditScript(Text);

  checker::incremental::Engine Engine;
  for (size_t I = 0; I < Script.Steps.size(); ++I) {
    const EditScript::Step &Step = Script.Steps[I];
    server::ExecResult Warm = recheckStep(Step, Opts.Jobs, &Engine, Pool);
    server::ExecResult Cold = checkStep(Step, 1);
    if (!sameExec(Warm, Cold)) {
      if (Kind)
        *Kind = "incremental-mismatch";
      if (Why)
        *Why = "step " + std::to_string(I) + ": " +
               describeExecDiff(Warm, Cold, "recheck-warm", "check-cold");
      return true;
    }
  }

  // Second replay at the Session level: the verdict-bearing counters
  // (check.qual_errors, check.deref_sites, diag.*, ...) must not drift
  // when part of the answer is served from the verdict store.
  checker::incremental::Engine Engine2;
  for (size_t I = 0; I < Script.Steps.size(); ++I) {
    const EditScript::Step &Step = Script.Steps[I];
    SessionOptions AO;
    AO.Builtins = Step.Builtins;
    AO.Jobs = Opts.Jobs;
    AO.SharedIncremental = &Engine2;
    AO.IncrementalUnit = "fuzz";
    Session A(AO);
    A.recheck(Step.Source);
    SessionOptions BO;
    BO.Builtins = Step.Builtins;
    BO.Jobs = 1;
    Session B(BO);
    B.check(Step.Source);
    std::map<std::string, uint64_t> MA = invariantCounters(A.metrics());
    std::map<std::string, uint64_t> MB = invariantCounters(B.metrics());
    if (MA != MB) {
      if (Kind)
        *Kind = "incremental-metrics-mismatch";
      if (Why)
        *Why = "step " + std::to_string(I) +
               ": invariant counters diverge: " + describeCounterDiff(MA, MB);
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Scenarios
//===----------------------------------------------------------------------===//

void soundnessScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  ProgramGenOptions GO;
  GO.MayDiverge = true;
  std::string Source = generateProgram(R, GO);
  C.Stats.add("fuzz.gen.programs", 1);
  cmmOracles(Source, RunSeed, C);
}

void mixedScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  ProgramGenOptions GO;
  GO.GenMode = ProgramGenOptions::Mode::Mixed;
  std::string Source = generateProgram(R, GO);
  C.Stats.add("fuzz.gen.programs", 1);
  // Mixed programs mostly carry diagnostics; the jobs differential (and
  // the audit, on the occasional accepted one) still applies.
  cmmOracles(Source, RunSeed, C);
}

void qualgenScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  GeneratedQualSet Set = generateQualSet(R);
  C.Stats.add("fuzz.gen.qualsets", 1);
  qualSetOracles(Set.Source, &Set, RunSeed, C);
}

void proverScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  unsigned SubSeed = static_cast<unsigned>(R.next());
  C.Stats.add("fuzz.gen.prover_sessions", 1);
  prover::ProofResult Inc =
      runProverSession(SubSeed, prover::EngineKind::Incremental);
  prover::ProofResult Ref =
      runProverSession(SubSeed, prover::EngineKind::Reference);
  if (Inc != Ref) {
    FuzzFailure F;
    F.Oracle = "engine-differential";
    F.Kind = "session-mismatch";
    F.RunSeed = RunSeed;
    F.Input = "runProverSession(" + std::to_string(SubSeed) + ")";
    F.Detail = "incremental=" + std::to_string(static_cast<int>(Inc)) +
               " reference=" + std::to_string(static_cast<int>(Ref));
    reportFailure(C, std::move(F));
  }
}

void editReplayScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  EditScript Script = generateEditScript(R);
  C.Stats.add("fuzz.gen.edit_scripts", 1);
  C.Stats.add("fuzz.gen.edit_steps", Script.Steps.size());
  std::string Text = renderEditScript(Script);
  std::string Kind, Why;
  if (!editScriptViolation(Text, C.Opts, C.Pool, &Kind, &Why))
    return;
  FuzzFailure F;
  F.Oracle = "edit-replay";
  F.Kind = Kind;
  F.RunSeed = RunSeed;
  F.Detail = Why;
  const CampaignOptions &Opts = C.Opts;
  F.Input = minimized(C, Text, [&Opts](const std::string &Candidate) {
    std::string K, W;
    return editScriptViolation(Candidate, Opts, nullptr, &K, &W);
  });
  reportFailure(C, std::move(F));
}

/// Parses the error count from a `check` verdict line ("qualifier errors:
/// N (..."). Returns false on a front-end failure (no verdict line).
bool parseQualErrors(const server::ExecResult &R, unsigned &Out) {
  const std::string Tag = "qualifier errors: ";
  size_t At = R.Out.find(Tag);
  if (R.ExitCode >= 2 || At == std::string::npos)
    return false;
  Out = static_cast<unsigned>(
      std::strtoul(R.Out.c_str() + At + Tag.size(), nullptr, 10));
  return true;
}

server::ExecResult inferInvocation(const std::string &Source, unsigned Jobs,
                                   bool Apply) {
  server::Invocation Inv;
  Inv.Command = "infer";
  Inv.Source = Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = programQualifiers();
  Inv.Session.Jobs = Jobs;
  Inv.Session.Infer.Apply = Apply;
  return server::executeInvocation(Inv);
}

/// The inference oracle: strip every inferable annotation, re-infer with
/// the constraint engine, apply, and hold the result to three laws —
/// applying inferred annotations never adds errors (and keeps a clean
/// program clean, the greatest-fixpoint guarantee), the constraint engine's
/// full set equals what the sequential fixpoint reference infers,
/// and the suggestion report is byte-identical across job counts.
void inferenceScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  std::string Source = generateProgram(R);
  C.Stats.add("fuzz.gen.programs", 1);
  C.Stats.add("fuzz.inference.inputs", 1);

  // Strip inferable qualifiers through the front end and re-print.
  SessionOptions SO;
  SO.Builtins = programQualifiers();
  Session Strip(SO);
  Session::FrontEndOutcome FE = Strip.frontEnd(Source);
  if (!FE.Ok || Strip.diags().hasErrors())
    return; // Generator produced a front-end reject; nothing to infer.
  checker::stripInferableQualifiers(*FE.Program, Strip.qualifiers());
  std::string Stripped = cminus::printProgram(*FE.Program);

  // Jobs differential: the suggestion report is deterministic by key.
  server::ExecResult Seq = inferInvocation(Stripped, 1, /*Apply=*/false);
  server::ExecResult Par =
      inferInvocation(Stripped, C.Opts.Jobs, /*Apply=*/false);
  if (!sameExec(Seq, Par)) {
    FuzzFailure F;
    F.Oracle = "inference";
    F.Kind = "jobs-mismatch-infer";
    F.RunSeed = RunSeed;
    F.Input = Stripped;
    F.Detail = describeExecDiff(Seq, Par, "jobs=1", "jobs=N");
    reportFailure(C, std::move(F));
    return;
  }

  // Apply the minimal set: errors must not increase, clean must stay
  // clean.
  unsigned StrippedErrors = 0;
  if (!parseQualErrors(checkInvocation(Stripped, 1), StrippedErrors))
    return;
  server::ExecResult Applied = inferInvocation(Stripped, 1, /*Apply=*/true);
  unsigned AppliedErrors = 0;
  if (Applied.ExitCode != 0 ||
      !parseQualErrors(checkInvocation(Applied.Out, 1), AppliedErrors)) {
    FuzzFailure F;
    F.Oracle = "inference";
    F.Kind = "applied-reject";
    F.RunSeed = RunSeed;
    F.Input = Stripped;
    F.Detail = "annotated program no longer passes the front end:\n" +
               trunc(Applied.Out) + "\n" + trunc(Applied.Err);
    reportFailure(C, std::move(F));
    return;
  }
  if (AppliedErrors > StrippedErrors) {
    FuzzFailure F;
    F.Oracle = "inference";
    F.Kind = StrippedErrors == 0 ? "apply-not-clean" : "apply-errors-increase";
    F.RunSeed = RunSeed;
    F.Input = Stripped;
    F.Detail = "stripped program has " + std::to_string(StrippedErrors) +
               " qualifier error(s), applying inferred annotations yields " +
               std::to_string(AppliedErrors);
    reportFailure(C, std::move(F));
    return;
  }

  // Reference equality: the constraint engine's full set (minimal plus
  // demoted) is exactly what the sequential reference infers.
  Session Infer(SO);
  Session::FrontEndOutcome FE2 = Infer.frontEnd(Stripped);
  if (!FE2.Ok || Infer.diags().hasErrors())
    return;
  checker::ConstraintInferenceOptions IO;
  IO.Cache = C.Cache;
  checker::InferenceReport Cons =
      checker::inferWithConstraints(*FE2.Program, Infer.qualifiers(), IO);
  checker::InferenceOutcome Ref =
      checker::inferQualifiers(*FE2.Program, Infer.qualifiers());
  using QualMap = std::map<const cminus::VarDecl *, std::set<std::string>>;
  QualMap Full;
  for (const auto &S : Cons.Suggestions)
    for (const auto &Q : S.Quals)
      Full[S.Decl].insert(Q.Qual);
  if (Full == Ref.Inferred)
    return;
  // Name the first differing variable in source order (pointer order is
  // not stable across runs).
  auto QualsOf = [](const QualMap &M, const cminus::VarDecl *V) {
    auto It = M.find(V);
    return It == M.end() ? std::set<std::string>() : It->second;
  };
  const cminus::VarDecl *First = nullptr;
  for (const QualMap *M : {&Full, &Ref.Inferred})
    for (const auto &[V, Quals] : *M) {
      if (QualsOf(Full, V) == QualsOf(Ref.Inferred, V))
        continue;
      if (!First || std::tie(V->Loc.Line, V->Loc.Col, V->Name) <
                        std::tie(First->Loc.Line, First->Loc.Col, First->Name))
        First = V;
    }
  auto List = [](const std::set<std::string> &Quals) {
    std::string Out;
    for (const std::string &Q : Quals)
      Out += (Out.empty() ? "" : " ") + Q;
    return "{" + Out + "}";
  };
  FuzzFailure F;
  F.Oracle = "inference";
  F.Kind = "fixpoint-mismatch";
  F.RunSeed = RunSeed;
  F.Input = Stripped;
  F.Detail = "'" + std::string(First->Name) + "' at " + First->Loc.str() +
             ": constraint engine infers " + List(QualsOf(Full, First)) +
             ", fixpoint reference infers " +
             List(QualsOf(Ref.Inferred, First));
  reportFailure(C, std::move(F));
}

/// Dedicated VM-differential runs: divergence-capable programs (checker
/// verdict irrelevant — rejected programs still execute) through
/// interp-vs-vm and elision-on/off byte comparison.
void vmScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  ProgramGenOptions GO;
  GO.MayDiverge = true;
  std::string Source = generateProgram(R, GO);
  C.Stats.add("fuzz.gen.programs", 1);
  vmOracle(Source, RunSeed, C);
}

/// `check` over the multi-TU front end: the units ship as `inputs`, the
/// headers as an in-memory `files` map, exactly like a client talking to
/// stqd.
server::ExecResult multiTuInvocation(const workloads::MultiTuProgram &P,
                                     unsigned Jobs) {
  server::Invocation Inv;
  Inv.Command = "check";
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inv.Inputs.push_back({U.Name, U.Text});
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Inv.Files[H.Name] = H.Text;
  Inv.HasFiles = true;
  Inv.Session.Builtins = {"pos", "neg"};
  Inv.Session.Jobs = Jobs;
  return server::executeInvocation(Inv);
}

/// The same program pre-expanded into one translation unit, still fed
/// through the preprocessing front end (the flattening keeps the #define
/// and #ifndef lines, only #includes are gone).
server::ExecResult flattenedInvocation(const workloads::MultiTuProgram &P) {
  server::Invocation Inv;
  Inv.Command = "check";
  Inv.Inputs.push_back({"flattened.c", P.Flattened});
  Inv.HasFiles = true; // Empty map: the flattening resolves no includes.
  Inv.Session.Builtins = {"pos", "neg"};
  Inv.Session.Jobs = 1;
  return server::executeInvocation(Inv);
}

/// The `qualifier errors: ...` verdict line, the location-independent tail
/// of a check's stdout (multi-TU and flattened runs place diagnostics at
/// different files/lines, so only the counters are comparable).
std::string verdictLine(const std::string &Out) {
  size_t Pos = Out.rfind("qualifier errors:");
  return Pos == std::string::npos ? std::string() : Out.substr(Pos);
}

/// The frontend oracle: preprocess-then-check on a generated multi-TU
/// program must be byte-identical across job counts, and its verdict
/// counters must equal checking the pre-expanded single-TU flattening of
/// the same program.
void frontendScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  unsigned Units = 2 + static_cast<unsigned>(R.pick(6));
  unsigned Fns = 1 + static_cast<unsigned>(R.pick(4));
  unsigned Seed = 1 + static_cast<unsigned>(R.pick(63));
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(Units, Fns, Seed);
  C.Stats.add("fuzz.frontend.inputs", 1);

  server::ExecResult Seq = multiTuInvocation(P, 1);
  server::ExecResult Par = multiTuInvocation(P, C.Opts.Jobs);
  if (!sameExec(Seq, Par)) {
    FuzzFailure F;
    F.Oracle = "frontend";
    F.Kind = "jobs-mismatch-multitu";
    F.RunSeed = RunSeed;
    F.Input = P.Flattened;
    F.Detail = describeExecDiff(Seq, Par, "jobs=1", "jobs=N");
    reportFailure(C, std::move(F));
    return;
  }

  server::ExecResult Flat = flattenedInvocation(P);
  if (Seq.ExitCode != Flat.ExitCode ||
      verdictLine(Seq.Out) != verdictLine(Flat.Out)) {
    FuzzFailure F;
    F.Oracle = "frontend";
    F.Kind = "flatten-mismatch";
    F.RunSeed = RunSeed;
    F.Input = P.Flattened;
    F.Detail = "multi-TU (" + std::to_string(P.Units.size()) +
               " units, farm seed " + std::to_string(Seed) + ") vs " +
               "flattened single TU: " +
               describeExecDiff(Seq, Flat, "multi-tu", "flattened");
    reportFailure(C, std::move(F));
  }
}

/// A `recheck` over a header+unit tree, shaped exactly like a client
/// talking to stqd: the units ship as `inputs`, the headers as the
/// in-memory `files` map.
server::Invocation recheckTreeInvocation(const workloads::MultiTuProgram &P,
                                         unsigned Jobs) {
  server::Invocation Inv;
  Inv.Command = "recheck";
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inv.Inputs.push_back({U.Name, U.Text});
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Inv.Files[H.Name] = H.Text;
  Inv.HasFiles = true;
  Inv.Session.Jobs = Jobs;
  return Inv;
}

/// Applies one seeded edit to header \p Text: insert a blank line, insert
/// a harmless #define, or append a fresh prototype. All three keep the
/// tree front-end-clean while shifting line maps and every includer's
/// preprocessed signature.
std::string editHeaderText(const std::string &Text, Rng &R, unsigned Step,
                           std::string &Desc) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char Ch : Text) {
    if (Ch == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur.push_back(Ch);
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  std::string Tag = std::to_string(Step);
  switch (R.pick(3)) {
  case 0: {
    size_t At = R.pick(Lines.size() + 1);
    Lines.insert(Lines.begin() + At, "");
    Desc = "insert blank line at " + std::to_string(At + 1);
    break;
  }
  case 1: {
    size_t At = R.pick(Lines.size() + 1);
    Lines.insert(Lines.begin() + At, "#define STQ_FUZZ_PAD_" + Tag + " " + Tag);
    Desc = "insert #define at " + std::to_string(At + 1);
    break;
  }
  default:
    Lines.push_back("int stq_fuzz_probe_" + Tag + "(int x);");
    Desc = "append prototype stq_fuzz_probe_" + Tag;
    break;
  }
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

/// The header-edit oracle: a §6 corpus program (or a small synthetic
/// farm) is rechecked through one persistent incremental engine while its
/// shared headers are edited between runs — what a long-lived stqd sees
/// from an editor session. After every header touch the warm recheck must
/// stay byte-identical to a cold recheck of the same tree.
void headerEditScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  workloads::MultiTuProgram Prog;
  std::string Name;
  std::string QualFile;
  if (R.pick(3) == 0) {
    unsigned Units = 2 + static_cast<unsigned>(R.pick(5));
    unsigned Fns = 1 + static_cast<unsigned>(R.pick(3));
    unsigned Seed = 1 + static_cast<unsigned>(R.pick(63));
    Prog = workloads::makeMultiTuFarm(Units, Fns, Seed);
    Name = "farm-" + std::to_string(Seed);
  } else {
    std::vector<workloads::CorpusProgram> All = workloads::makeAllCorpora();
    workloads::CorpusProgram &P = All[R.pick(All.size())];
    Prog = std::move(P.Prog);
    QualFile = P.QualFile;
    Name = P.Name;
  }
  if (Prog.Headers.empty())
    return;
  C.Stats.add("fuzz.header_edit.programs", 1);

  server::Invocation Inv = recheckTreeInvocation(Prog, C.Opts.Jobs);
  if (QualFile.empty()) {
    Inv.Session.Builtins = {"pos", "neg"};
  } else {
    Inv.Session.QualSources = {QualFile};
    Inv.Session.IncludeDirs = {"include", "lib"};
  }

  checker::incremental::Engine Engine;
  server::SharedContext Warm;
  Warm.Incremental = &Engine;

  // Prime the engine on the pristine tree, then edit and re-verify.
  std::string LastEdit = "pristine tree";
  std::string LastHeader;
  unsigned Steps = 2 + static_cast<unsigned>(R.pick(3));
  for (unsigned Step = 0; Step <= Steps; ++Step) {
    server::ExecResult WarmR = server::executeInvocation(Inv, Warm);
    server::ExecResult ColdR = server::executeInvocation(Inv);
    if (!sameExec(WarmR, ColdR)) {
      FuzzFailure F;
      F.Oracle = "header-edit";
      F.Kind = "warm-cold-recheck-mismatch";
      F.RunSeed = RunSeed;
      F.Input = LastHeader.empty() ? std::string() : Inv.Files[LastHeader];
      F.Detail = Name + " after step " + std::to_string(Step) + " (" +
                 LastEdit + "): " +
                 describeExecDiff(WarmR, ColdR, "warm-recheck",
                                  "cold-recheck");
      reportFailure(C, std::move(F));
      return;
    }
    if (Step == Steps)
      break;
    const workloads::MultiTuProgram::File &H =
        Prog.Headers[R.pick(Prog.Headers.size())];
    std::string Desc;
    Inv.Files[H.Name] = editHeaderText(Inv.Files[H.Name], R, Step, Desc);
    LastEdit = H.Name + ": " + Desc;
    LastHeader = H.Name;
    C.Stats.add("fuzz.header_edit.edits", 1);
  }
}

void robustnessScenario(Rng &R, uint64_t RunSeed, OracleContext &C) {
  C.Stats.add("fuzz.robustness.inputs", 1);
  switch (R.pick(4)) {
  case 0: {
    // Token soup through the C-minus front end: diagnose, never abort.
    std::string Soup =
        tokenSoup(R, Vocab::CMinus, 5 + static_cast<unsigned>(R.pick(60)));
    SessionOptions SO;
    SO.Builtins = programQualifiers();
    Session S(SO);
    S.frontEnd(Soup);
    break;
  }
  case 1: {
    std::string Soup =
        tokenSoup(R, Vocab::QualDsl, 5 + static_cast<unsigned>(R.pick(50)));
    SessionOptions SO;
    SO.QualSources = {Soup};
    Session S(SO);
    S.loadQualifiers();
    break;
  }
  case 2: {
    // Byte mutations of a valid program: exercises lexer and parser
    // recovery near well-formed input; the jobs differential must hold on
    // the diagnostic output too.
    std::string Source = mutateBytes(generateProgram(R), R);
    C.Stats.add("fuzz.mutations", 1);
    server::ExecResult Seq = checkInvocation(Source, 1);
    server::ExecResult Par = checkInvocation(Source, C.Opts.Jobs);
    if (!sameExec(Seq, Par)) {
      FuzzFailure F;
      F.Oracle = "metamorphic";
      F.Kind = "jobs-mismatch-mutated";
      F.RunSeed = RunSeed;
      F.Input = Source;
      F.Detail = describeExecDiff(Seq, Par, "jobs=1", "jobs=N");
      reportFailure(C, std::move(F));
    }
    break;
  }
  default: {
    std::string Src = mutateBytes(generateQualSet(R).Source, R);
    C.Stats.add("fuzz.mutations", 1);
    SessionOptions SO;
    SO.QualSources = {Src};
    Session S(SO);
    S.loadQualifiers();
    break;
  }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

CampaignResult stq::fuzz::runCampaign(const CampaignOptions &Opts,
                                      stats::Registry &Stats,
                                      std::ostream *Log) {
  CampaignResult Result;
  ThreadPool Pool(Opts.Jobs);
  prover::ProverCache Cache;
  OracleContext C{Opts, Stats, Result, Log, &Pool, &Cache};

  Rng Master(Opts.Seed);
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Opts.Runs; ++I) {
    if (Opts.TimeBudgetSeconds > 0) {
      auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
      if (Elapsed >= static_cast<long>(Opts.TimeBudgetSeconds)) {
        if (Log)
          *Log << "fuzz: time budget exhausted after " << I << " runs\n";
        break;
      }
    }
    uint64_t RunSeed = Master.next();
    Rng R(RunSeed);
    Stats.add("fuzz.runs", 1);
    // The weight draw happens even under OnlyScenario so per-run seeds
    // line up with the mixed campaign for the same master seed.
    uint64_t W = R.pick(100);
    const std::string &Only = Opts.OnlyScenario;
    if (Only == "soundness" || (Only.empty() && W < 45))
      soundnessScenario(R, RunSeed, C);
    else if (Only == "mixed" || (Only.empty() && W < 60))
      mixedScenario(R, RunSeed, C);
    else if (Only == "qualgen" || (Only.empty() && W < 75))
      qualgenScenario(R, RunSeed, C);
    else if (Only == "prover" || (Only.empty() && W < 85))
      proverScenario(R, RunSeed, C);
    else if (Only == "edit-replay" || (Only.empty() && W < 93))
      editReplayScenario(R, RunSeed, C);
    else if (Only == "inference" || (Only.empty() && W < 96))
      inferenceScenario(R, RunSeed, C);
    else if (Only == "vm" || (Only.empty() && W < 97))
      vmScenario(R, RunSeed, C);
    else if (Only == "frontend" || (Only.empty() && W < 98))
      frontendScenario(R, RunSeed, C);
    else if (Only == "header-edit" || (Only.empty() && W < 99))
      headerEditScenario(R, RunSeed, C);
    else
      robustnessScenario(R, RunSeed, C);
    ++Result.RunsExecuted;
    if (Log && (I + 1) % 100 == 0)
      *Log << "fuzz: " << (I + 1) << "/" << Opts.Runs << " runs, "
           << Result.Failures.size() << " failures\n";
  }
  return Result;
}

bool stq::fuzz::replayCorpusFile(const std::string &Path,
                                 const CampaignOptions &Opts,
                                 stats::Registry &Stats,
                                 CampaignResult &Result) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  Stats.add("fuzz.corpus.replayed", 1);
  OracleContext C{Opts, Stats, Result, nullptr, nullptr, nullptr};
  bool IsQual =
      Path.size() >= 5 && Path.compare(Path.size() - 5, 5, ".qual") == 0;
  bool IsEdits =
      Path.size() >= 6 && Path.compare(Path.size() - 6, 6, ".edits") == 0;
  if (IsQual) {
    qualSetOracles(Text, nullptr, 0, C);
  } else if (IsEdits) {
    std::string Kind, Why;
    if (editScriptViolation(Text, Opts, nullptr, &Kind, &Why)) {
      FuzzFailure F;
      F.Oracle = "edit-replay";
      F.Kind = Kind;
      F.Input = Text;
      F.Detail = Why;
      reportFailure(C, std::move(F));
    }
  } else {
    cmmOracles(Text, 0, C);
  }
  return true;
}
