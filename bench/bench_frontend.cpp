//===- bench_frontend.cpp - Multi-TU ingestion throughput and scaling -----===//
//
// Measures the real-C front end (src/pp + src/frontend) on a generated
// multi-translation-unit farm: a shared header plus 120 qualifier-heavy
// units fed through Session::checkFiles. Reports
//
//   * front-end phase time (preprocess + parse + sema + lower across all
//     TUs) and end-to-end check time at --jobs 1 and --jobs 4, with the
//     jobs-4-over-1 speedups — the per-TU fan-out is the point of the
//     subsystem, so the speedup is the headline number;
//   * preprocessor volume (input lines consumed, expanded lines
//     produced, includes honored) for throughput tracking;
//   * a byte-identity correctness gate: diagnostics and verdict counters
//     at jobs 4 must equal jobs 1 exactly, on any host.
//
// On a single-CPU host a genuine parallel speedup is impossible, so the
// scaling timing gate mirrors bench_inference: above 1 hardware thread
// jobs-4 must beat jobs-1; at 1 it must merely stay within scheduling
// noise. Results go to BENCH_frontend.json (bench/Report.h).
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "driver/Session.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

constexpr unsigned NumUnits = 120;
constexpr unsigned FnsPerUnit = 6;
constexpr int Reps = 3;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

double histogramMean(Session &S, const char *Name) {
  stats::Registry::Snapshot Snap = S.metrics().snapshot();
  auto It = Snap.Histograms.find(Name);
  return It == Snap.Histograms.end() ? 0.0 : It->second.mean();
}

struct RunResult {
  double Total = 0;    ///< checkFiles wall seconds.
  double Frontend = 0; ///< phase.frontend_seconds.
  unsigned QualErrors = 0;
  std::string Diags; ///< Every diagnostic rendered, for byte-comparison.
  pp::PpStats Pp;
};

/// One checkFiles run in a fresh Session; headers resolve from a shipped
/// in-memory map, so the benchmark never touches the filesystem.
RunResult runOnce(const workloads::MultiTuProgram &P, const pp::FileMap &Files,
                  unsigned Jobs) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.Jobs = Jobs;
  Opts.ShippedFiles = &Files;
  Session S(Opts);
  std::vector<frontend::InputFile> Inputs;
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inputs.push_back({U.Name, U.Text});

  RunResult R;
  auto Start = std::chrono::steady_clock::now();
  Session::CheckFilesOutcome Out = S.checkFiles(Inputs);
  R.Total = secondsSince(Start);
  if (!Out.Load.ok()) {
    std::fprintf(stderr, "bench_frontend: front end rejected the farm\n");
    S.diags().print(std::cerr);
    std::exit(1);
  }
  R.Frontend = histogramMean(S, "phase.frontend_seconds");
  R.QualErrors = Out.Result.QualErrors;
  for (const Diagnostic &D : S.diags().diagnostics())
    R.Diags += D.str() + "\n";
  for (const frontend::TUnit &U : Out.Load.Units) {
    R.Pp.LinesIn += U.Pp.Stats.LinesIn;
    R.Pp.LinesOut += U.Pp.Stats.LinesOut;
    R.Pp.Includes += U.Pp.Stats.Includes;
    R.Pp.Expansions += U.Pp.Stats.Expansions;
  }
  return R;
}

void measure(bench::Report &R) {
  // Seed 3 plants one qualifier warning, so the byte-identity comparison
  // covers remapped diagnostics and not just the verdict line.
  workloads::MultiTuProgram P =
      workloads::makeMultiTuFarm(NumUnits, FnsPerUnit, /*Seed=*/3);
  pp::FileMap Files;
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Files[H.Name] = H.Text;

  RunResult J1, J4;
  double Best1 = 0, Best4 = 0, Front1 = 0, Front4 = 0;
  for (int I = 0; I < Reps; ++I) {
    RunResult R = runOnce(P, Files, 1);
    if (I == 0 || R.Total < Best1) {
      Best1 = R.Total;
      Front1 = R.Frontend;
      J1 = R;
    }
  }
  for (int I = 0; I < Reps; ++I) {
    RunResult R = runOnce(P, Files, 4);
    if (I == 0 || R.Total < Best4) {
      Best4 = R.Total;
      Front4 = R.Frontend;
      J4 = R;
    }
  }

  bool ByteIdentical = J1.Diags == J4.Diags && J1.QualErrors == J4.QualErrors;

  const std::string BestOf = ", best of " + std::to_string(Reps);
  R.add("translation_units", static_cast<double>(P.Units.size()), "count",
        "generated .c files checked (plus one shared header)");
  R.add("source_lines", P.Lines, "count",
        "non-blank lines across headers and units");
  R.add("pp_lines_in", static_cast<double>(J1.Pp.LinesIn), "count",
        "physical input lines the preprocessor consumed");
  R.add("pp_lines_out", static_cast<double>(J1.Pp.LinesOut), "count",
        "expanded output lines the parser consumed");
  R.add("pp_includes", static_cast<double>(J1.Pp.Includes), "count",
        "#include directives honored across all TUs");
  R.add("pp_expansions", static_cast<double>(J1.Pp.Expansions), "count",
        "macro invocations expanded across all TUs");
  R.add("frontend_jobs1_seconds", Front1, "seconds",
        "front-end phase (preprocess+parse+sema+lower, all TUs) at --jobs 1" +
            BestOf);
  R.add("frontend_jobs4_seconds", Front4, "seconds",
        "front-end phase at --jobs 4" + BestOf);
  R.add("frontend_speedup_4x", Front4 > 0 ? Front1 / Front4 : 0, "ratio",
        "front-end phase: jobs-1 time over jobs-4 time");
  R.add("check_jobs1_seconds", Best1, "seconds",
        "end-to-end checkFiles at --jobs 1" + BestOf);
  R.add("check_jobs4_seconds", Best4, "seconds",
        "end-to-end checkFiles at --jobs 4" + BestOf);
  R.add("check_speedup_4x", Best4 > 0 ? Best1 / Best4 : 0, "ratio",
        "end-to-end: jobs-1 time over jobs-4 time");
  R.add("planted_warnings", P.PlantedWarnings, "count",
        "qualifier warnings the generator planted");
  R.gate("diagnostics_byte_identical", bench::GateKind::Correctness,
         ByteIdentical, "jobs-4 diagnostics and verdict equal jobs-1 exactly");

  // On a single-CPU host a genuine parallel speedup is impossible, and the
  // per-TU fan-out pays real oversubscription cost (one task per TU, all
  // context-switching on one core); require only that jobs-4 stays within
  // 1.5x of jobs-1 there.
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? Front4 > 0 && Front4 < Front1
                          : Front4 > 0 && Front4 < Front1 * 1.5;
  R.add("hardware_threads", HW, "count",
        "std::thread::hardware_concurrency() on this host (speedup is "
        "required only above 1)");
  R.gate("frontend_scaling", bench::GateKind::Timing, ScalingOk,
         HW > 1 ? "jobs-4 front-end phase faster than jobs-1"
                : "one hardware thread: jobs-4 front-end phase within 1.5x "
                  "of jobs-1");
}

} // namespace

// The steady-state front end on its own, for --benchmark_filter runs.
static void BM_MultiTuLoad(benchmark::State &State) {
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(24, FnsPerUnit, 1);
  pp::FileMap Files;
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Files[H.Name] = H.Text;
  std::vector<frontend::InputFile> Inputs;
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inputs.push_back({U.Name, U.Text});
  for (auto _ : State) {
    SessionOptions Opts;
    Opts.Builtins = {"pos", "neg"};
    Opts.ShippedFiles = &Files;
    Session S(Opts);
    Session::LoadOutcome Out = S.load(Inputs);
    benchmark::DoNotOptimize(Out.Units.size());
  }
}
BENCHMARK(BM_MultiTuLoad)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bench::Report R("bench_frontend", "frontend",
                  "multi-TU front end: ingestion throughput and scaling");
  measure(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
