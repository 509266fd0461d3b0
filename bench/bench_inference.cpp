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
// Alongside the latencies the report (BENCH_inference.json,
// bench/Report.h) records solver statistics and three gates: the
// suggestion report is byte-identical across job counts and applying the
// suggestions re-checks completely clean (correctness), and the jobs-4
// solve phase beats jobs-1 (timing; on a single-CPU machine parallel
// wall-clock speedup is physically impossible, so there the solve must
// merely stay within noise of jobs-1, matching bench_parallel_scaling's
// hardware-aware handling).
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "driver/Session.h"
#include "server/Exec.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
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

void measure(bench::Report &R) {
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
  R.add("infer_cold_jobs1_seconds", Jobs1, "seconds",
        "mean constraint-engine inference phase over the " +
            std::to_string(FarmFunctions) +
            "-function farm, --jobs 1, cold prover cache");
  for (int I = 0; I < Reps; ++I) {
    Jobs4 += inferOnce(Farm.Source, 4, nullptr, &Report4);
    Solve4 += Report4.Stats.SolveSeconds;
  }
  Jobs4 /= Reps;
  Solve4 /= Reps;
  R.add("infer_cold_jobs4_seconds", Jobs4, "seconds",
        "same inference phase at --jobs 4 (sharded generation and solve)");
  R.add("solve_jobs1_seconds", Solve1, "seconds",
        "mean graph-solve time alone at --jobs 1 (generation and "
        "minimization excluded)");
  R.add("solve_jobs4_seconds", Solve4, "seconds",
        "mean graph-solve time alone at --jobs 4");
  R.add("solve_speedup_jobs4", Solve4 > 0 ? Solve1 / Solve4 : 0, "ratio",
        "jobs-1 graph solve / jobs-4 graph solve");

  // Warm shared prover cache: minimization implication queries replay.
  {
    prover::ProverCache Shared;
    inferOnce(Farm.Source, 1, &Shared);
    double Warm = 0;
    for (int I = 0; I < Reps; ++I)
      Warm += inferOnce(Farm.Source, 1, &Shared);
    Warm /= Reps;
    R.add("infer_warm_cache_seconds", Warm, "seconds",
          "mean jobs-1 inference phase against a warm shared prover cache "
          "(implication queries replay)");
  }

  R.add("farm_lines", Farm.Lines, "count", "non-blank lines in the farm");
  R.add("constraints", static_cast<double>(Report.Stats.Constraints), "count",
        "flow constraints in the graph");
  R.add("solve_rounds", static_cast<double>(Report.Stats.SolveRounds),
        "count", "worklist rounds to the fixpoint");
  R.add("evaluations", static_cast<double>(Report.Stats.Evaluations), "count",
        "(constraint, qualifier) evaluations performed");
  R.add("suggestions", static_cast<double>(Report.Stats.Suggested), "count",
        "minimal-set (variable, qualifier) pairs");
  R.add("implied_pairs", static_cast<double>(Report.Stats.Implied), "count",
        "pairs demoted by prover-discharged implication");

  // Acceptance: byte-identical reports across job counts, and applying
  // the suggestions re-checks completely clean.
  server::ExecResult R1 = inferInvocation(Farm.Source, 1, /*Apply=*/false);
  server::ExecResult R4 = inferInvocation(Farm.Source, 4, /*Apply=*/false);
  bool ByteIdentical = R1.Out == R4.Out && R1.Err == R4.Err &&
                       R1.ExitCode == R4.ExitCode;
  R.gate("jobs_byte_identical", bench::GateKind::Correctness, ByteIdentical,
         "suggestion report identical at --jobs 1 and 4");

  server::ExecResult Applied = inferInvocation(Farm.Source, 1, /*Apply=*/true);
  server::Invocation Check;
  Check.Command = "check";
  Check.Source = Applied.Out;
  Check.HasSource = true;
  Check.Session.Builtins = inferBuiltins();
  bool RecheckClean = Applied.ExitCode == 0 &&
                      server::executeInvocation(Check).ExitCode == 0;
  R.gate("apply_recheck_clean", bench::GateKind::Correctness, RecheckClean,
         "annotated farm re-checks with zero qualifier errors");

  // On a single-CPU host a genuine parallel speedup is impossible; require
  // only that the sharded solve stays within scheduling noise of jobs-1.
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? Solve4 > 0 && Solve4 < Solve1
                          : Solve4 > 0 && Solve4 < Solve1 * 1.25;
  R.add("hardware_threads", HW, "count",
        "std::thread::hardware_concurrency() on this host (speedup is "
        "required only above 1)");
  R.gate("solve_scaling", bench::GateKind::Timing, ScalingOk,
         HW > 1 ? "jobs-4 graph solve faster than jobs-1"
                : "one hardware thread: jobs-4 graph solve within 1.25x of "
                  "jobs-1");
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
  bench::Report R("bench_inference", "inference",
                  "whole-program inference solve scaling");
  measure(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
