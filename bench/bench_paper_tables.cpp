//===- bench_paper_tables.cpp - Table 1/2 replication timings -------------===//
//
// Times the paper-fidelity evaluation harness (src/eval) end to end:
//
//   * each §6 corpus program (grep-dfa, bftpd, mingetty, identd) checked
//     through the multi-file front end, with its table columns re-derived
//     and gated against the known Table 1/Table 2 values — the same
//     numbers tests/corpus/c/TABLES.expected pins;
//   * corpus rows at --jobs 1 and --jobs 4 must agree exactly, including
//     every rendered diagnostic;
//   * a ~1M-line synthetic farm, generated one translation unit at a time
//     (never materialized as a whole MultiTuProgram, so the run fits CI
//     RAM), checked at --jobs 1 and --jobs 4: diagnostics must agree
//     exactly, and a hardware-aware scaling timing gate mirrors
//     bench_frontend (above 1 hardware thread jobs-4 must beat jobs-1; at
//     1 it must stay within 1.5x).
//
// Every gate but the scaling one is a correctness gate. Results go to
// BENCH_paper_tables.json (bench/Report.h); STQ_PAPER_FARM_LINES scales
// the farm (default 1000000, and only the default size is held to the
// 900000-line floor).
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "eval/PaperEval.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

/// The published columns each corpus row must reproduce. Drift in the
/// generators, the front end, or the checker shows up here (and in the
/// TABLES.expected golden) before it can silently skew the tables.
struct ExpectedRow {
  const char *Name;
  unsigned Annotations, Casts, Sites, Errors;
};
constexpr ExpectedRow Expected[] = {
    {"grep-dfa", 110, 62, 884, 0}, // sites = dereference sites
    {"bftpd", 2, 0, 134, 1},       // sites = printf-family calls
    {"mingetty", 1, 0, 23, 0},
    {"identd", 0, 0, 21, 0},
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

bool sameRow(const eval::EvalRow &A, const eval::EvalRow &B) {
  return eval::renderRow(A) == eval::renderRow(B);
}

void measureCorpora(bench::Report &R) {
  std::vector<workloads::CorpusProgram> Corpora = workloads::makeAllCorpora();
  for (size_t I = 0; I < Corpora.size(); ++I) {
    eval::ProgramSpec Spec = eval::specFromCorpus(Corpora[I]);
    SessionOptions J1, J4;
    J1.Jobs = 1;
    J4.Jobs = 4;
    eval::EvalRow R1 = eval::evalProgram(Spec, J1);
    eval::EvalRow R4 = eval::evalProgram(Spec, J4);
    const bool CheckOk = R1.CheckOk && R4.CheckOk;
    const ExpectedRow &E = Expected[I];
    unsigned Sites = Spec.Kind == "table1" ? R1.Derefs : R1.PrintfCalls;
    bool RowOk = CheckOk && Spec.Name == E.Name &&
                 R1.Annotations == E.Annotations && R1.Casts == E.Casts &&
                 Sites == E.Sites && R1.Errors == E.Errors;
    char Row[160];
    std::snprintf(Row, sizeof(Row),
                  "annotations/casts/sites/errors %u/%u/%u/%u, paper "
                  "%u/%u/%u/%u",
                  R1.Annotations, R1.Casts, Sites, R1.Errors, E.Annotations,
                  E.Casts, E.Sites, E.Errors);

    std::string Tag = Spec.Name;
    for (char &C : Tag)
      if (C == '-')
        C = '_';
    R.add(Tag + "_lines", R1.Lines, "count",
          "non-blank corpus lines (lib/ excluded)");
    R.add(Tag + "_annotations", R1.Annotations, "count",
          "distinct as-written qualifier annotations");
    R.add(Tag + "_casts", R1.Casts, "count",
          "qualifier casts in function bodies");
    R.add(Tag + "_sites", Sites, "count",
          Spec.Kind == "table1" ? "dereference sites"
                                : "printf-family call sites");
    R.add(Tag + "_errors", R1.Errors, "count", "qualifier errors reported");
    R.add(Tag + "_check_jobs1_seconds", R1.Seconds, "seconds",
          "evalProgram wall time at --jobs 1");
    R.add(Tag + "_check_jobs4_seconds", R4.Seconds, "seconds",
          "evalProgram wall time at --jobs 4");
    R.gate(Tag + "_table_row", bench::GateKind::Correctness, RowOk,
           CheckOk ? Row : "the front end failed on " + Spec.Name);
    R.gate(Tag + "_rows_jobs_identical", bench::GateKind::Correctness,
           CheckOk && sameRow(R1, R4),
           "jobs-4 row (counts + diagnostics) equals jobs-1");
  }
}

struct FarmRun {
  double Seconds = 0;
  unsigned QualErrors = 0;
  std::string Diags;
  bool Ok = false;
};

/// One checkFiles pass over the streamed farm. The unit texts are owned
/// by \p Inputs (generated once by the caller); only the shared header
/// lives in the shipped map.
FarmRun runFarm(const std::vector<frontend::InputFile> &Inputs,
                const pp::FileMap &Files, unsigned Jobs) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.Jobs = Jobs;
  Opts.ShippedFiles = &Files;
  Session S(Opts);
  FarmRun R;
  auto Start = std::chrono::steady_clock::now();
  Session::CheckFilesOutcome Out = S.checkFiles(Inputs);
  R.Seconds = secondsSince(Start);
  R.Ok = Out.Load.ok();
  R.QualErrors = Out.Result.QualErrors;
  for (const Diagnostic &D : S.diags().diagnostics())
    R.Diags += D.str() + "\n";
  return R;
}

void measureFarm(bench::Report &R) {
  unsigned long TargetLines = 1000000;
  bool DefaultSize = true;
  if (const char *Env = std::getenv("STQ_PAPER_FARM_LINES"))
    if (unsigned long V = std::strtoul(Env, nullptr, 10)) {
      TargetLines = V;
      DefaultSize = false;
    }

  // Unit count stays fixed: the shared header lists one prototype per
  // unit and is re-expanded into every TU, so growing the farm by unit
  // count is quadratic in preprocessed lines. Growing functions-per-unit
  // is linear (~6 lines per generated function).
  workloads::FarmSpec Spec;
  Spec.Units = 256;
  Spec.FnsPerUnit = static_cast<unsigned>(
      std::max(1ul, TargetLines / (Spec.Units * 6ul)));
  Spec.Seed = 3;
  Spec.CallFanOut = 4;

  pp::FileMap Files;
  Files["farm.h"] = workloads::makeFarmHeader(Spec);
  unsigned long Lines = workloads::countLines(Files["farm.h"]);
  std::vector<frontend::InputFile> Inputs;
  Inputs.reserve(Spec.Units + 1);
  for (unsigned U = 0; U < Spec.Units; ++U) {
    workloads::MultiTuProgram::File F = workloads::makeFarmUnit(Spec, U);
    Lines += workloads::countLines(F.Text);
    Inputs.push_back({std::move(F.Name), std::move(F.Text)});
  }
  {
    workloads::MultiTuProgram::File M = workloads::makeFarmMain(Spec);
    Lines += workloads::countLines(M.Text);
    Inputs.push_back({std::move(M.Name), std::move(M.Text)});
  }

  FarmRun J1 = runFarm(Inputs, Files, 1);
  FarmRun J4 = runFarm(Inputs, Files, 4);
  const bool FrontEndOk = J1.Ok && J4.Ok;
  R.gate("farm_front_end", bench::GateKind::Correctness, FrontEndOk,
         "the front end accepts every farm unit at --jobs 1 and 4");
  if (!FrontEndOk)
    return;
  bool ByteIdentical =
      J1.Diags == J4.Diags && J1.QualErrors == J4.QualErrors;
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? J4.Seconds > 0 && J4.Seconds < J1.Seconds
                          : J4.Seconds > 0 && J4.Seconds < J1.Seconds * 1.5;

  R.add("farm_translation_units", static_cast<double>(Inputs.size()),
        "count", "generated .c files checked");
  R.add("farm_lines", static_cast<double>(Lines), "count",
        "non-blank lines across header and units");
  R.add("farm_check_jobs1_seconds", J1.Seconds, "seconds",
        "end-to-end checkFiles at --jobs 1");
  R.add("farm_check_jobs4_seconds", J4.Seconds, "seconds",
        "end-to-end checkFiles at --jobs 4");
  R.add("farm_speedup_4x", J4.Seconds > 0 ? J1.Seconds / J4.Seconds : 0,
        "ratio", "jobs-1 time over jobs-4 time");
  R.add("farm_lines_per_second_jobs4", J4.Seconds > 0 ? Lines / J4.Seconds : 0,
        "lines/second", "per-TU pipeline throughput at jobs 4");
  R.add("farm_qual_errors", J1.QualErrors, "count",
        "qualifier errors the checker reported");
  R.add("hardware_threads", HW, "count",
        "std::thread::hardware_concurrency() on this host (speedup is "
        "required only above 1)");
  R.gate("farm_diagnostics_byte_identical", bench::GateKind::Correctness,
         ByteIdentical, "jobs-4 diagnostics and verdict equal jobs-1 exactly");
  R.gate("farm_lines_900k", bench::GateKind::Correctness,
         !DefaultSize || Lines >= 900000,
         DefaultSize ? std::to_string(Lines) + " lines, at least 900000"
                     : "STQ_PAPER_FARM_LINES is set: size not gated");
  R.gate("farm_scaling", bench::GateKind::Timing, ScalingOk,
         HW > 1 ? "jobs-4 farm check faster than jobs-1"
                : "one hardware thread: jobs-4 farm check within 1.5x of "
                  "jobs-1");
}

} // namespace

// The grep-dfa corpus evaluation on its own, for --benchmark_filter runs.
static void BM_EvalGrepDfa(benchmark::State &State) {
  eval::ProgramSpec Spec =
      eval::specFromCorpus(workloads::makeGrepDfaCorpus());
  SessionOptions Base;
  Base.Jobs = 2;
  for (auto _ : State) {
    eval::EvalRow Row = eval::evalProgram(Spec, Base);
    benchmark::DoNotOptimize(Row.Annotations);
  }
}
BENCHMARK(BM_EvalGrepDfa)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bench::Report R("bench_paper_tables", "paper_tables",
                  "paper tables: §6 corpus replication and farm scale");
  measureCorpora(R);
  measureFarm(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
