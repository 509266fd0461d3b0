//===- replay.cpp - In-process replay for the stq benchmark ---------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// The traced half of the benchmark (perfbench/run.py drives it). It replays
// the inputs the untraced run sent to `stqc` and `stqd`, calling each
// layer's public functions directly in the order the request path calls
// them, and records one span per call. Spans stay in memory and are
// written out when the replay ends; run.py turns them into the per-layer
// metrics. Subcommands:
//
//   stq-perfbench gen-farm DIR SEED UNITS FNS
//       write the seeded multi-TU farm (farm.h, u<i>.c, main.c) and a
//       one-function farm under DIR/setup; print its shape as JSON
//   stq-perfbench farm QUALS JOBS SECONDS SPANS OUTPUT FILE...
//       check the farm in-process (run from the farm directory), once
//       untraced and once traced per round until SECONDS have passed;
//       QUALS is builtin:a,b or file:PATH; OUTPUT receives the bytes the
//       first check printed (stdout, then stderr)
//   stq-perfbench ops OPS.jsonl SPANS
//       replay stq-rpc-v1 request lines the way stqd executes them, once
//       untraced and once traced, each pass from fresh shared state
//   stq-perfbench build-info
//       print the compiler and any sanitizer this build was made with
//
// Every subcommand prints one JSON document on stdout.
//
//===----------------------------------------------------------------------===//

#include "checker/ConstraintInference.h"
#include "checker/Incremental.h"
#include "checker/Parallel.h"
#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "frontend/Frontend.h"
#include "pp/Preprocessor.h"
#include "prover/ProverCache.h"
#include "qual/Builtins.h"
#include "qual/QualParser.h"
#include "soundness/Soundness.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace stq;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process: across a layer call on the request
/// thread, the busy time of every worker the call fans out to.
int64_t processCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
}

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Index = Next++;
  return Index;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct SpanRecord {
  const char *Name;
  uint64_t Req;
  uint64_t Id;
  uint64_t Parent;
  int64_t StartNs;
  int64_t EndNs;
  int64_t CpuNs;
  uint32_t Tid;
};

/// Span store shared by every thread of a replay. Disabled, it records
/// nothing and reads no clock, which is what the untraced pass measures.
class SpanLog {
public:
  bool Enabled = false;

  uint64_t nextId() { return ++LastId; }
  void add(const SpanRecord &R) {
    std::lock_guard<std::mutex> Lock(M);
    Records.push_back(R);
  }
  void writeJsonLines(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const SpanRecord &R : Records)
      Out << "{\"name\":\"" << R.Name << "\",\"req\":" << R.Req
          << ",\"id\":" << R.Id << ",\"parent\":" << R.Parent
          << ",\"start_ns\":" << R.StartNs << ",\"end_ns\":" << R.EndNs
          << ",\"cpu_ns\":" << R.CpuNs << ",\"tid\":" << R.Tid << "}\n";
  }

private:
  std::atomic<uint64_t> LastId{0};
  std::mutex M;
  std::vector<SpanRecord> Records;
};

/// One span around one layer call. \p Parent is the caller's span id (0
/// for a request root).
class Span {
public:
  Span(SpanLog &Log, const char *Name, uint64_t Req, uint64_t Parent)
      : Log(Log) {
    if (!Log.Enabled)
      return;
    R = {Name, Req, Log.nextId(), Parent, nowNs(), 0, processCpuNs(),
         threadIndex()};
  }
  ~Span() {
    if (!Log.Enabled)
      return;
    R.EndNs = nowNs();
    R.CpuNs = processCpuNs() - R.CpuNs;
    Log.add(R);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return R.Id; }

private:
  SpanLog &Log;
  SpanRecord R{};
};

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// FNV-1a 64: a cheap digest to compare the outputs of repeated checks.
uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::filesystem::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

[[noreturn]] void fail(const std::string &Message) {
  std::cerr << "stq-perfbench: " << Message << "\n";
  std::exit(2);
}

json::Value num(double V) { return json::Value::number(V); }
json::Value count(uint64_t V) {
  return json::Value::integer(static_cast<int64_t>(V));
}

double seconds(int64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

/// The counters the per-layer metrics read, summed over one pass.
struct Counts {
  uint64_t PpLinesOut = 0;
  uint64_t AssignChecks = 0, AssignFailures = 0;
  uint64_t HasQualQueries = 0, MemoHits = 0;
  uint64_t IncUnits = 0, IncHits = 0, IncRechecked = 0;
  uint64_t InferEvaluations = 0;
  uint64_t VmChecksExecuted = 0;
  uint64_t Obligations = 0, ObligationsFromCache = 0;
  uint64_t DiagCount = 0, DiagBytes = 0;

  void addChecker(const checker::CheckerStats &S) {
    AssignChecks += S.AssignChecks;
    AssignFailures += S.AssignFailures;
    HasQualQueries += S.HasQualQueries;
    MemoHits += S.MemoHits;
  }

  json::Value toJson() const {
    json::Value O = json::Value::object();
    O.set("pp_lines_out", count(PpLinesOut));
    O.set("assign_checks", count(AssignChecks));
    O.set("assign_failures", count(AssignFailures));
    O.set("has_qual_queries", count(HasQualQueries));
    O.set("memo_hits", count(MemoHits));
    O.set("incremental_units", count(IncUnits));
    O.set("incremental_hits", count(IncHits));
    O.set("incremental_rechecked", count(IncRechecked));
    O.set("infer_evaluations", count(InferEvaluations));
    O.set("vm_checks_executed", count(VmChecksExecuted));
    O.set("obligations", count(Obligations));
    O.set("obligations_from_cache", count(ObligationsFromCache));
    O.set("diag_count", count(DiagCount));
    O.set("diag_bytes", count(DiagBytes));
    return O;
  }
};

/// Renders diagnostics exactly as TextDiagnosticConsumer does.
std::string renderDiagnostics(const DiagnosticEngine &Diags, SpanLog &Log,
                              uint64_t Req, uint64_t Parent, Counts &C) {
  Span S(Log, "support.diag_render", Req, Parent);
  std::string Out;
  for (const Diagnostic &D : Diags.diagnostics()) {
    Out += D.str();
    Out += '\n';
  }
  C.DiagCount += Diags.diagnostics().size();
  C.DiagBytes += Out.size();
  return Out;
}

/// parse + sema + lower + verify, as Session::frontEnd runs them.
std::unique_ptr<cminus::Program>
frontEnd(const std::string &Source, const qual::QualifierSet &Quals,
         DiagnosticEngine &Diags, SpanLog &Log, uint64_t Req, uint64_t Parent,
         bool &Ok) {
  Ok = false;
  std::unique_ptr<cminus::Program> Prog;
  {
    Span S(Log, "cminus.parse", Req, Parent);
    Prog = cminus::parseProgram(Source, Quals.names(), Diags);
  }
  if (!Prog || Diags.hasErrors())
    return Prog;
  {
    Span S(Log, "cminus.sema", Req, Parent);
    if (!cminus::runSema(*Prog, Quals.refNames(), Diags))
      return Prog;
  }
  {
    Span S(Log, "cminus.lower", Req, Parent);
    if (!cminus::lowerProgram(*Prog, Diags) ||
        !cminus::verifyLoweredProgram(*Prog, Diags))
      return Prog;
  }
  Ok = true;
  return Prog;
}

std::string verdictLine(unsigned Errors, const checker::CheckerStats &S,
                        uint64_t RuntimeChecks) {
  return "qualifier errors: " + std::to_string(Errors) +
         " (dereference sites " + std::to_string(S.DerefSites) +
         ", assignment checks " + std::to_string(S.AssignChecks) +
         ", run-time checks " + std::to_string(RuntimeChecks) + ")\n";
}

//===----------------------------------------------------------------------===//
// gen-farm
//===----------------------------------------------------------------------===//

void writeFarm(const std::filesystem::path &Dir,
               const workloads::FarmSpec &Spec) {
  std::filesystem::create_directories(Dir);
  bool Ok = writeFile(Dir / "farm.h", workloads::makeFarmHeader(Spec));
  for (unsigned U = 0; U < Spec.Units; ++U) {
    workloads::MultiTuProgram::File F = workloads::makeFarmUnit(Spec, U);
    Ok = Ok && writeFile(Dir / F.Name, F.Text);
  }
  workloads::MultiTuProgram::File Main = workloads::makeFarmMain(Spec);
  Ok = Ok && writeFile(Dir / Main.Name, Main.Text);
  if (!Ok)
    fail("cannot write the farm under " + Dir.string());
}

int cmdGenFarm(const std::vector<std::string> &Args) {
  if (Args.size() != 4)
    fail("usage: gen-farm DIR SEED UNITS FNS");
  workloads::FarmSpec Spec;
  Spec.Seed = static_cast<unsigned>(std::stoul(Args[1]));
  Spec.Units = static_cast<unsigned>(std::stoul(Args[2]));
  Spec.FnsPerUnit = static_cast<unsigned>(std::stoul(Args[3]));
  if (Spec.Units == 0 || Spec.FnsPerUnit == 0)
    fail("UNITS and FNS must be positive");
  std::filesystem::path Dir = Args[0];
  writeFarm(Dir, Spec);

  unsigned Planted = 0, Lines = 0;
  Lines += workloads::countLines(workloads::makeFarmHeader(Spec));
  for (unsigned U = 0; U < Spec.Units; ++U) {
    Planted += workloads::farmUnitPlanted(Spec, U);
    Lines += workloads::countLines(workloads::makeFarmUnit(Spec, U).Text);
  }
  Lines += workloads::countLines(workloads::makeFarmMain(Spec).Text);

  // The set-up probe: the same qualifiers on a one-function TU.
  workloads::FarmSpec One = Spec;
  One.Units = 1;
  One.FnsPerUnit = 1;
  One.Seed = 1; // Seed 1 plants nothing.
  writeFarm(Dir / "setup", One);

  json::Value O = json::Value::object();
  O.set("units", count(Spec.Units));
  O.set("functions", count(uint64_t(Spec.Units) * Spec.FnsPerUnit));
  O.set("planted", count(Planted));
  O.set("lines", count(Lines));
  std::cout << O.write() << "\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Qualifier loading
//===----------------------------------------------------------------------===//

/// Loads builtin:a,b or file:PATH the way Session::loadQualifiers does.
void loadQuals(const std::string &Spec, qual::QualifierSet &Set,
               DiagnosticEngine &Diags) {
  bool Ok = true;
  if (Spec.rfind("builtin:", 0) == 0) {
    std::stringstream SS(Spec.substr(8));
    std::string Name;
    while (Ok && std::getline(SS, Name, ','))
      Ok = qual::parseQualifiers(qual::builtinQualifierSource(Name), Set,
                                 Diags);
  } else if (Spec.rfind("file:", 0) == 0) {
    std::string Text;
    if (!readFile(Spec.substr(5), Text))
      fail("cannot read qualfile " + Spec.substr(5));
    Ok = qual::parseQualifiers(Text, Set, Diags);
  } else {
    fail("QUALS must be builtin:a,b or file:PATH");
  }
  if (!Ok || !qual::checkWellFormed(Set, Diags))
    fail("invalid qualifier configuration " + Spec);
}

//===----------------------------------------------------------------------===//
// farm
//===----------------------------------------------------------------------===//

struct FarmPass {
  double WallS = 0;
  /// What stqc would print.
  std::string Out, Err;
  unsigned QualErrors = 0;
};

/// One `stqc check -I . --jobs J FILE...`, as Session::checkFiles and
/// execCheckFiles run it, with a span around every layer call.
FarmPass farmCheckOnce(const std::string &QualSpec, unsigned Jobs,
                       const std::vector<frontend::InputFile> &Inputs,
                       SpanLog &Log, uint64_t Req, Counts &C) {
  FarmPass P;
  Span Root(Log, "request", Req, 0);
  const uint64_t R = Root.id();

  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  {
    Span S(Log, "qual.load", Req, R);
    loadQuals(QualSpec, Quals, Diags);
  }

  frontend::CompileOptions CO;
  CO.Pp.IncludeDirs = {"."};
  CO.QualNames = Quals.names();
  CO.RefQualNames = Quals.refNames();

  const size_t N = Inputs.size();
  std::vector<frontend::TUnit> Units(N);
  std::vector<DiagnosticEngine> UnitDiags(N);
  {
    // compileUnit's steps, one span each, fanned out like Session::load.
    Span Fan(Log, "frontend.fanout", Req, R);
    const uint64_t F = Fan.id();
    parallelFor(Jobs, N, [&](size_t I) {
      frontend::TUnit &U = Units[I];
      DiagnosticEngine &D = UnitDiags[I];
      U.Name = Inputs[I].Name;
      pp::DiskResolver Disk;
      {
        Span S(Log, "pp.preprocess", Req, F);
        U.Pp = pp::preprocess(U.Name, Inputs[I].Text, Disk, CO.Pp, D);
      }
      if (!U.Pp.Ok)
        return;
      {
        Span S(Log, "cminus.parse", Req, F);
        U.Program = cminus::parseProgram(U.Pp.Text, CO.QualNames, D);
      }
      if (!U.Program || D.hasErrors())
        return;
      {
        Span S(Log, "cminus.sema", Req, F);
        if (!cminus::runSema(*U.Program, CO.RefQualNames, D))
          return;
      }
      Span S(Log, "cminus.lower", Req, F);
      if (!cminus::lowerProgram(*U.Program, D) ||
          !cminus::verifyLoweredProgram(*U.Program, D))
        return;
      U.FrontEndOk = true;
    });
  }

  // Session::reportUnitDiags: copy a TU's diagnostics, remap them, and
  // re-report them into the session's engine.
  auto MergeUnit = [&](DiagnosticEngine &UnitDiag,
                       const frontend::TUnit &U) {
    std::vector<Diagnostic> Ds;
    {
      Span S(Log, "support.diag_merge", Req, R);
      Ds = UnitDiag.diagnostics();
    }
    {
      Span S(Log, "frontend.remap", Req, R);
      frontend::remapDiagnostics(Ds, 0, U.Name, U.Pp.Map);
    }
    Span S(Log, "support.diag_merge", Req, R);
    for (Diagnostic &D : Ds)
      Diags.report(std::move(D));
    UnitDiag.clear();
  };

  bool FrontEndOk = N > 0;
  for (size_t I = 0; I < N; ++I) {
    MergeUnit(UnitDiags[I], Units[I]);
    FrontEndOk = FrontEndOk && Units[I].FrontEndOk;
    C.PpLinesOut += Units[I].Pp.Stats.LinesOut;
  }
  bool LinkOk;
  {
    Span S(Log, "frontend.link", Req, R);
    LinkOk = frontend::linkUnits(Units, Diags);
  }

  checker::CheckResult Total;
  if (FrontEndOk && LinkOk) {
    for (const frontend::TUnit &U : Units) {
      DiagnosticEngine UnitDiag;
      checker::CheckResult Res;
      {
        Span S(Log, "checker.check", Req, R);
        Res = checker::checkProgramParallel(*U.Program, Quals, UnitDiag, {},
                                            Jobs);
      }
      MergeUnit(UnitDiag, U);
      Total.QualErrors += Res.QualErrors;
      Total.Stats.DerefSites += Res.Stats.DerefSites;
      Total.Stats.AssignChecks += Res.Stats.AssignChecks;
      Total.RuntimeChecks.insert(Total.RuntimeChecks.end(),
                                 Res.RuntimeChecks.begin(),
                                 Res.RuntimeChecks.end());
      C.addChecker(Res.Stats);
    }
  }

  P.Err = renderDiagnostics(Diags, Log, Req, R, C);
  if (!Diags.hasErrors())
    P.Out = verdictLine(Total.QualErrors, Total.Stats,
                        Total.RuntimeChecks.size());
  P.QualErrors = Total.QualErrors;
  {
    // stqc frees the same state when its Session goes out of scope.
    Span S(Log, "driver.teardown", Req, R);
    Total = {};
    Units.clear();
    UnitDiags.clear();
    Diags.clear();
  }
  return P;
}

FarmPass farmCheck(const std::string &QualSpec, unsigned Jobs,
                   const std::vector<frontend::InputFile> &Inputs,
                   SpanLog &Log, uint64_t Req, Counts &C) {
  int64_t Start = nowNs();
  FarmPass P = farmCheckOnce(QualSpec, Jobs, Inputs, Log, Req, C);
  P.WallS = seconds(Start);
  return P;
}

int cmdFarm(const std::vector<std::string> &Args) {
  if (Args.size() < 6)
    fail("usage: farm QUALS JOBS SECONDS SPANS OUTPUT FILE...");
  const std::string QualSpec = Args[0];
  const unsigned Jobs = static_cast<unsigned>(std::stoul(Args[1]));
  const double Budget = std::stod(Args[2]);
  std::vector<frontend::InputFile> Inputs;
  for (size_t I = 5; I < Args.size(); ++I) {
    frontend::InputFile F{Args[I], {}};
    if (!readFile(F.Name, F.Text))
      fail("cannot read " + F.Name);
    Inputs.push_back(std::move(F));
  }

  SpanLog Untraced, Traced;
  Traced.Enabled = true;
  Counts UntracedCounts, TracedCounts;
  json::Value UntracedWalls = json::Value::array();
  json::Value TracedWalls = json::Value::array();
  json::Value Digests = json::Value::array();
  json::Value Errors = json::Value::array();
  uint64_t Req = 0;
  int64_t Start = nowNs();
  // Alternate the two passes so drift in the host hits both alike; at
  // least one round always runs.
  do {
    FarmPass U = farmCheck(QualSpec, Jobs, Inputs, Untraced, ++Req,
                           UntracedCounts);
    FarmPass T = farmCheck(QualSpec, Jobs, Inputs, Traced, ++Req,
                           TracedCounts);
    UntracedWalls.push(num(U.WallS));
    TracedWalls.push(num(T.WallS));
    if (Req == 2 && !writeFile(Args[4], U.Out + U.Err))
      fail("cannot write " + Args[4]);
    Digests.push(json::Value::str(hex64(fnv1a(U.Err, fnv1a(U.Out)))));
    Digests.push(json::Value::str(hex64(fnv1a(T.Err, fnv1a(T.Out)))));
    Errors.push(count(U.QualErrors));
    Errors.push(count(T.QualErrors));
  } while (seconds(Start) < Budget);

  Traced.writeJsonLines(Args[3]);
  json::Value O = json::Value::object();
  O.set("untraced_wall_s", std::move(UntracedWalls));
  O.set("traced_wall_s", std::move(TracedWalls));
  O.set("digests", std::move(Digests));
  O.set("qual_errors", std::move(Errors));
  O.set("counts", TracedCounts.toJson());
  std::cout << O.write() << "\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// ops: the stqd request path
//===----------------------------------------------------------------------===//

/// What stqd shares across requests, fresh per pass.
struct ServerState {
  qual::QualifierSet Defaults;
  prover::ProverCache Cache;
  checker::incremental::Engine Incremental;
  ThreadPool Pool{ThreadPool::defaultJobs()};
};

struct OpResult {
  int ExitCode = 0;
  std::string Out, Err;
  /// Per-qualifier verdicts of a prove ("name:SOUND" ...).
  std::string Verdicts;
};

OpResult runRecheck(const json::Value &Req, ServerState &St, SpanLog &Log,
                    uint64_t Id, uint64_t R, Counts &C,
                    std::unique_ptr<cminus::Program> &Prog) {
  OpResult Res;
  DiagnosticEngine Diags;
  bool Ok;
  Prog =
      frontEnd(Req.getString("source"), St.Defaults, Diags, Log, Id, R, Ok);
  checker::incremental::RecheckResult RR;
  if (Ok) {
    const json::Value *Opts = Req.get("options");
    std::string Unit = Opts ? Opts->getString("unit") : std::string();
    checker::incremental::RecheckStats RS;
    {
      Span S(Log, "checker.recheck", Id, R);
      RR = St.Incremental.recheck(Unit, *Prog, St.Defaults, Diags, {}, 1, &RS,
                                  &St.Pool);
    }
    C.addChecker(RR.Stats);
    C.IncUnits += RS.Units;
    C.IncHits += RS.Hits;
    C.IncRechecked += RS.Rechecked;
  }
  Res.Err = renderDiagnostics(Diags, Log, Id, R, C);
  if (Diags.hasErrors()) {
    Res.ExitCode = 2;
    return Res;
  }
  Res.Out = verdictLine(RR.QualErrors, RR.Stats, RR.RuntimeCheckCount);
  Res.ExitCode = RR.ok() ? 0 : 1;
  return Res;
}

OpResult runInfer(const json::Value &Req, ServerState &St, SpanLog &Log,
                  uint64_t Id, uint64_t R, Counts &C,
                  std::unique_ptr<cminus::Program> &Prog) {
  OpResult Res;
  DiagnosticEngine Diags;
  bool Ok;
  Prog =
      frontEnd(Req.getString("source"), St.Defaults, Diags, Log, Id, R, Ok);
  if (!Ok || Diags.hasErrors()) {
    Res.Err = renderDiagnostics(Diags, Log, Id, R, C);
    Res.ExitCode = 2;
    return Res;
  }
  checker::ConstraintInferenceOptions CI;
  CI.Jobs = 1;
  CI.Pool = &St.Pool;
  CI.Cache = &St.Cache;
  checker::InferenceReport Report;
  {
    Span S(Log, "checker.infer", Id, R);
    Report = checker::inferWithConstraints(*Prog, St.Defaults, CI);
  }
  C.InferEvaluations += Report.Stats.Evaluations;
  {
    Span S(Log, "cminus.print", Id, R);
    checker::applyReport(*Prog, Report);
    Res.Out = cminus::printProgram(*Prog);
  }
  return Res;
}

OpResult runRun(const json::Value &Req, ServerState &St, SpanLog &Log,
                uint64_t Id, uint64_t R, Counts &C,
                std::unique_ptr<cminus::Program> &Prog) {
  OpResult Res;
  DiagnosticEngine Diags;
  bool Ok;
  Prog =
      frontEnd(Req.getString("source"), St.Defaults, Diags, Log, Id, R, Ok);
  checker::CheckResult Check;
  if (Ok) {
    Span S(Log, "checker.check", Id, R);
    Check = checker::checkProgramParallel(*Prog, St.Defaults, Diags, {}, 1,
                                          nullptr, &St.Pool);
  }
  C.addChecker(Check.Stats);
  if (!Ok || Diags.hasErrors()) {
    Res.Err = renderDiagnostics(Diags, Log, Id, R, C);
    Res.ExitCode = 2;
    return Res;
  }
  vm::VmOptions VO;
  VO.ProgramCheckedClean = Check.ok();
  VO.Cache = &St.Cache;
  // compileProgram = compileModule + elideGuards + a GuardFast peephole
  // that is not public; the replay runs the two public stages, so residual
  // guards execute through the generic Guard op here.
  vm::CompiledProgram CP;
  {
    Span S(Log, "vm.compile", Id, R);
    vm::compileModule(*Prog, St.Defaults, Check.RuntimeChecks,
                      VO.Interp.EntryPoint, CP.M);
  }
  {
    Span S(Log, "vm.elide", Id, R);
    vm::elideGuards(CP, St.Defaults, VO);
  }
  interp::RunResult Run;
  {
    Span S(Log, "vm.execute", Id, R);
    Run = vm::execute(CP, VO.Interp);
  }
  C.VmChecksExecuted += Run.ChecksExecuted;
  Res.Err = renderDiagnostics(Diags, Log, Id, R, C);
  Res.Out = Run.Output;
  if (Run.Status == interp::RunStatus::Ok) {
    Res.Out += "[exit " + std::to_string(static_cast<long>(*Run.ExitValue)) +
               "]\n";
    Res.ExitCode = static_cast<int>(*Run.ExitValue & 0xff);
  } else {
    Res.ExitCode = 3; // Any non-Ok status is a mismatch for run.py.
  }
  return Res;
}

OpResult runProve(const json::Value &Req, ServerState &St, SpanLog &Log,
                  uint64_t Id, uint64_t R, Counts &C) {
  OpResult Res;
  DiagnosticEngine Diags;
  qual::QualifierSet Quals;
  bool Ok = true;
  {
    Span S(Log, "qual.parse", Id, R);
    if (const json::Value *Opts = Req.get("options"))
      if (const json::Value *Srcs = Opts->get("qualsources"))
        for (const json::Value &Src : Srcs->elements())
          Ok = Ok && qual::parseQualifiers(Src.asString(), Quals, Diags);
    Ok = Ok && qual::checkWellFormed(Quals, Diags);
  }
  if (!Ok) {
    Res.Err = renderDiagnostics(Diags, Log, Id, R, C);
    Res.ExitCode = 2;
    return Res;
  }
  std::vector<soundness::SoundnessReport> Reports;
  {
    Span S(Log, "soundness.check", Id, R);
    soundness::SoundnessChecker SC(Quals, {}, nullptr, &St.Cache, nullptr,
                                   &St.Pool);
    Reports = SC.checkAll(1);
  }
  for (const soundness::SoundnessReport &Rep : Reports) {
    Res.Verdicts += Rep.Qual + (Rep.sound() ? ":SOUND " : ":UNSOUND ");
    if (!Rep.sound())
      Res.ExitCode = 1;
    C.Obligations += Rep.Obligations.size();
    for (const soundness::Obligation &O : Rep.Obligations)
      C.ObligationsFromCache += O.FromCache;
  }
  {
    Span S(Log, "support.diag_render", Id, R);
    Res.Out = soundness::formatReports(Reports);
  }
  // The report carries prover timings: only the verdicts are compared.
  Res.Out.clear();
  return Res;
}

struct OpsPass {
  json::Value Results = json::Value::array();
  json::Value InProcessMs = json::Value::array();
  double WallS = 0;
  Counts C;
};

OpsPass replayOps(const std::vector<json::Value> &Requests, SpanLog &Log) {
  OpsPass P;
  int64_t Start = nowNs();
  ServerState St;
  {
    // stqd's start-up: the default qualifier set (every builtin).
    Span S(Log, "qual.load", 0, 0);
    DiagnosticEngine Diags;
    if (!qual::loadAllBuiltinQualifiers(St.Defaults, Diags))
      fail("cannot load the builtin qualifiers");
  }
  uint64_t Id = 0;
  for (const json::Value &Req : Requests) {
    ++Id;
    int64_t OpStart = nowNs();
    OpResult Res;
    {
      Span Root(Log, "request", Id, 0);
      std::unique_ptr<cminus::Program> Prog;
      const std::string Cmd = Req.getString("command");
      if (Cmd == "recheck")
        Res = runRecheck(Req, St, Log, Id, Root.id(), P.C, Prog);
      else if (Cmd == "infer")
        Res = runInfer(Req, St, Log, Id, Root.id(), P.C, Prog);
      else if (Cmd == "run")
        Res = runRun(Req, St, Log, Id, Root.id(), P.C, Prog);
      else if (Cmd == "prove")
        Res = runProve(Req, St, Log, Id, Root.id(), P.C);
      else
        fail("cannot replay command '" + Cmd + "'");
      // stqd frees the request's program with its Session.
      Span S(Log, "driver.teardown", Id, Root.id());
      Prog.reset();
    }
    P.InProcessMs.push(num((nowNs() - OpStart) * 1e-6));
    json::Value O = json::Value::object();
    O.set("exit_code", json::Value::integer(Res.ExitCode));
    O.set("out", json::Value::str(Res.Out));
    O.set("err", json::Value::str(Res.Err));
    O.set("verdicts", json::Value::str(Res.Verdicts));
    P.Results.push(std::move(O));
  }
  P.WallS = seconds(Start);
  return P;
}

int cmdOps(const std::vector<std::string> &Args) {
  if (Args.size() != 2)
    fail("usage: ops OPS.jsonl SPANS");
  std::ifstream In(Args[0]);
  if (!In)
    fail("cannot read " + Args[0]);
  std::vector<json::Value> Requests;
  std::string Line, Error;
  while (std::getline(In, Line)) {
    json::Value V;
    if (!json::parse(Line, V, Error))
      fail("bad request line: " + Error);
    Requests.push_back(std::move(V));
  }

  SpanLog Untraced, Traced;
  Traced.Enabled = true;
  OpsPass U = replayOps(Requests, Untraced);
  OpsPass T = replayOps(Requests, Traced);
  Traced.writeJsonLines(Args[1]);

  json::Value O = json::Value::object();
  O.set("untraced_wall_s", num(U.WallS));
  O.set("traced_wall_s", num(T.WallS));
  O.set("untraced_op_ms", std::move(U.InProcessMs));
  O.set("untraced_results", std::move(U.Results));
  O.set("traced_results", std::move(T.Results));
  O.set("counts", T.C.toJson());
  std::cout << O.write() << "\n";
  return 0;
}

int cmdBuildInfo() {
  const char *Sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  Sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  Sanitizer = "thread";
#endif
  json::Value O = json::Value::object();
  O.set("compiler", json::Value::str(__VERSION__));
  O.set("sanitizer", json::Value::str(Sanitizer));
#ifdef NDEBUG
  O.set("asserts", json::Value::boolean(false));
#else
  O.set("asserts", json::Value::boolean(true));
#endif
  std::cout << O.write() << "\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    fail("usage: stq-perfbench gen-farm|farm|ops|build-info ...");
  const std::string Cmd = argv[1];
  std::vector<std::string> Args(argv + 2, argv + argc);
  if (Cmd == "gen-farm")
    return cmdGenFarm(Args);
  if (Cmd == "farm")
    return cmdFarm(Args);
  if (Cmd == "ops")
    return cmdOps(Args);
  if (Cmd == "build-info")
    return cmdBuildInfo();
  fail("unknown subcommand '" + Cmd + "'");
}
