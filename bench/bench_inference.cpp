//===- bench_inference.cpp - Whole-program inference solve scaling --------===//
//
// Measures the constraint-based inference engine against its reasons to
// exist: the sharded solve should scale with workers, and the suggestions
// it emits must be worth emitting. A synthetic unannotated farm of N
// functions (src/workloads makeInferenceFarm) is inferred
//
//   * cold at --jobs 1 and --jobs 4 (constraint generation + graph solve
//     fan out; the per-phase `phase.infer_seconds` timer isolates the part
//     the sharding can shrink),
//   * and warm against a shared prover cache (suggestion-minimization
//     implication queries replay).
//
// Alongside the latencies the report records solver statistics, and the
// process exits non-zero unless (a) the jobs-4 solve phase beats jobs-1
// (enforced only when the host has more than one hardware thread — on a
// single-CPU machine parallel wall-clock speedup is physically
// impossible, so there the solve must merely stay within noise of
// jobs-1, matching bench_parallel_scaling's hardware-aware handling),
// (b) the suggestion report is byte-identical across job counts, and
// (c) applying the suggestions re-checks completely clean — the
// acceptance criteria the CI inference-smoke job pins.
//
// Results go to BENCH_inference.json (schema stq-bench-inference-v1);
// STQ_INFERENCE_BENCH_OUT overrides the path.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "server/Exec.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

constexpr unsigned FarmFunctions = 700;

const std::vector<std::string> &inferBuiltins() {
  static const std::vector<std::string> B = {"pos", "neg", "nonneg",
                                             "nonzero"};
  return B;
}

/// The session's total time inside the inference phase (front end
/// excluded) — the part the sharded solve can actually shrink.
double inferPhaseSeconds(Session &S) {
  stats::Registry::Snapshot Snap = S.metrics().snapshot();
  auto It = Snap.Histograms.find("phase.infer_seconds");
  return It == Snap.Histograms.end() ? 0.0 : It->second.mean();
}

/// One inference run in a fresh Session. Returns the infer-phase seconds;
/// the full report lands in \p Report when non-null.
double inferOnce(const std::string &Source, unsigned Jobs,
                 prover::ProverCache *SharedCache = nullptr,
                 checker::InferenceReport *Report = nullptr) {
  SessionOptions Opts;
  Opts.Builtins = inferBuiltins();
  Opts.Jobs = Jobs;
  Opts.SharedCache = SharedCache;
  Session S(Opts);
  Session::InferenceReport Out = S.infer(Source);
  if (!Out.FrontEndOk) {
    std::fprintf(stderr, "bench_inference: front end rejected the farm\n");
    std::exit(1);
  }
  if (Report)
    *Report = Out.Report;
  return inferPhaseSeconds(S);
}

/// The one-shot executor's `infer` rendering at \p Jobs — the byte-stable
/// surface the server also serves.
server::ExecResult inferInvocation(const std::string &Source, unsigned Jobs,
                                   bool Apply) {
  server::Invocation Inv;
  Inv.Command = "infer";
  Inv.Source = Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = inferBuiltins();
  Inv.Session.Jobs = Jobs;
  Inv.Session.Infer.Apply = Apply;
  return server::executeInvocation(Inv);
}

struct ResultEntry {
  std::string Name;
  std::string Detail;
  double Value = 0;
  const char *Unit = "seconds";
};

std::vector<ResultEntry> measure(bool &AcceptanceOk) {
  std::vector<ResultEntry> Entries;
  constexpr int Reps = 5;
  const workloads::GeneratedWorkload Farm =
      workloads::makeInferenceFarm(FarmFunctions);

  checker::InferenceReport Report, Report4;
  double Jobs1 = 0, Jobs4 = 0, Solve1 = 0, Solve4 = 0;
  for (int I = 0; I < Reps; ++I) {
    Jobs1 += inferOnce(Farm.Source, 1, nullptr, &Report);
    Solve1 += Report.Stats.SolveSeconds;
  }
  Jobs1 /= Reps;
  Solve1 /= Reps;
  Entries.push_back({"infer_cold_jobs1_seconds",
                     "mean constraint-engine inference phase over the " +
                         std::to_string(FarmFunctions) +
                         "-function farm, --jobs 1, cold prover cache",
                     Jobs1});
  for (int I = 0; I < Reps; ++I) {
    Jobs4 += inferOnce(Farm.Source, 4, nullptr, &Report4);
    Solve4 += Report4.Stats.SolveSeconds;
  }
  Jobs4 /= Reps;
  Solve4 /= Reps;
  Entries.push_back({"infer_cold_jobs4_seconds",
                     "same inference phase at --jobs 4 (sharded generation "
                     "and solve)",
                     Jobs4});
  Entries.push_back({"solve_jobs1_seconds",
                     "mean graph-solve time alone at --jobs 1 (generation "
                     "and minimization excluded)",
                     Solve1});
  Entries.push_back({"solve_jobs4_seconds",
                     "mean graph-solve time alone at --jobs 4", Solve4});
  Entries.push_back({"solve_speedup_jobs4",
                     "jobs-1 graph solve / jobs-4 graph solve",
                     Solve4 > 0 ? Solve1 / Solve4 : 0, "ratio"});

  // Warm shared prover cache: minimization implication queries replay.
  {
    prover::ProverCache Shared;
    inferOnce(Farm.Source, 1, &Shared);
    double Warm = 0;
    for (int I = 0; I < Reps; ++I)
      Warm += inferOnce(Farm.Source, 1, &Shared);
    Warm /= Reps;
    Entries.push_back({"infer_warm_cache_seconds",
                       "mean jobs-1 inference phase against a warm shared "
                       "prover cache (implication queries replay)",
                       Warm});
  }

  Entries.push_back({"farm_lines", "non-blank lines in the farm",
                     static_cast<double>(Farm.Lines), "count"});
  Entries.push_back({"constraints", "flow constraints in the graph",
                     static_cast<double>(Report.Stats.Constraints), "count"});
  Entries.push_back({"solve_rounds", "worklist rounds to the fixpoint",
                     static_cast<double>(Report.Stats.SolveRounds), "count"});
  Entries.push_back({"evaluations",
                     "(constraint, qualifier) evaluations performed",
                     static_cast<double>(Report.Stats.Evaluations), "count"});
  Entries.push_back({"suggestions", "minimal-set (variable, qualifier) pairs",
                     static_cast<double>(Report.Stats.Suggested), "count"});
  Entries.push_back({"implied_pairs",
                     "pairs demoted by prover-discharged implication",
                     static_cast<double>(Report.Stats.Implied), "count"});

  // Acceptance: byte-identical reports across job counts, and applying
  // the suggestions re-checks completely clean.
  server::ExecResult R1 = inferInvocation(Farm.Source, 1, /*Apply=*/false);
  server::ExecResult R4 = inferInvocation(Farm.Source, 4, /*Apply=*/false);
  bool ByteIdentical = R1.Out == R4.Out && R1.Err == R4.Err &&
                       R1.ExitCode == R4.ExitCode;
  Entries.push_back({"jobs_byte_identical",
                     "suggestion report identical at --jobs 1 and 4",
                     ByteIdentical ? 1.0 : 0.0, "bool"});

  server::ExecResult Applied = inferInvocation(Farm.Source, 1, /*Apply=*/true);
  server::Invocation Check;
  Check.Command = "check";
  Check.Source = Applied.Out;
  Check.HasSource = true;
  Check.Session.Builtins = inferBuiltins();
  bool RecheckClean = Applied.ExitCode == 0 &&
                      server::executeInvocation(Check).ExitCode == 0;
  Entries.push_back({"apply_recheck_clean",
                     "annotated farm re-checks with zero qualifier errors",
                     RecheckClean ? 1.0 : 0.0, "bool"});

  // On a single-CPU host a genuine parallel speedup is impossible; require
  // only that the sharded solve stays within scheduling noise of jobs-1.
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? Solve4 > 0 && Solve4 < Solve1
                          : Solve4 > 0 && Solve4 < Solve1 * 1.25;
  Entries.push_back({"hardware_threads",
                     "std::thread::hardware_concurrency() on this host "
                     "(speedup is hard-gated only above 1)",
                     static_cast<double>(HW), "count"});
  AcceptanceOk = ScalingOk && ByteIdentical && RecheckClean;
  return Entries;
}

bool writeReport(const std::vector<ResultEntry> &Entries,
                 const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\n  \"schema\": \"stq-bench-inference-v1\",\n  \"entries\": [\n";
  for (size_t I = 0; I < Entries.size(); ++I) {
    const ResultEntry &E = Entries[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", E.Value);
    OS << "    {\n"
       << "      \"name\": \"" << E.Name << "\",\n"
       << "      \"detail\": \"" << E.Detail << "\",\n"
       << "      \"value\": " << Buf << ",\n"
       << "      \"unit\": \"" << E.Unit << "\"\n"
       << "    }" << (I + 1 < Entries.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  return true;
}

} // namespace

// The steady-state engine run on its own, for --benchmark_filter runs.
static void BM_InferConstraintsJobs4(benchmark::State &State) {
  const std::string Source = workloads::makeInferenceFarm(FarmFunctions).Source;
  for (auto _ : State) {
    double Phase = inferOnce(Source, 4);
    benchmark::DoNotOptimize(Phase);
  }
}
BENCHMARK(BM_InferConstraintsJobs4)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bool AcceptanceOk = false;
  std::vector<ResultEntry> Entries = measure(AcceptanceOk);
  std::printf("=== whole-program inference solve scaling ===\n");
  for (const ResultEntry &E : Entries)
    std::printf("%-32s %12.6f %s\n", E.Name.c_str(), E.Value, E.Unit);
  const char *Out = std::getenv("STQ_INFERENCE_BENCH_OUT");
  std::string Path = Out && *Out ? Out : "BENCH_inference.json";
  if (writeReport(Entries, Path))
    std::printf("report written to %s\n\n", Path.c_str());
  else
    std::printf("could not write %s\n\n", Path.c_str());
  if (!AcceptanceOk) {
    std::fprintf(stderr,
                 "bench_inference: FAIL: expected a jobs-4 solve-phase "
                 "speedup over jobs-1 (parity within noise on single-CPU "
                 "hosts), byte-identical reports across job counts, and a "
                 "clean re-check of the applied suggestions\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
