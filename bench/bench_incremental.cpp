//===- bench_incremental.cpp - Edit-to-verdict latency, cold vs warm ------===//
//
// Measures the incremental layer against its reason to exist: after a
// small edit, a warm `recheck` should answer in time proportional to the
// edit, not the unit. A synthetic unit of N functions in a call chain is
// checked cold, then re-checked warm after
//
//   * no edit at all (every work item replays from the verdict store),
//   * a one-function body edit (exactly one item re-checks),
//   * a signature edit at the chain's root (every transitive caller
//     re-checks — the worst warm case).
//
// Alongside the latencies the report (BENCH_incremental.json,
// bench/Report.h) records the work-item counters, and two correctness
// gates hold them: a warm single-function edit re-checks strictly fewer
// functions than the cold run, and a root signature edit re-checks more
// than the body edit but no more than the whole unit.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "checker/Incremental.h"
#include "driver/Session.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

using namespace stq;
using checker::incremental::Engine;

namespace {

constexpr int NumFns = 60;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Renders the synthetic unit: f0 <- f1 <- ... <- f59 <- main. \p Variant
/// switches one constant inside \p EditedFn between two same-width values
/// (a pure body edit: no other function's source positions move).
/// \p RootSig widens f0's parameter type (a signature edit dirtying the
/// whole chain).
std::string program(int EditedFn, int Variant, bool RootSig = false) {
  std::ostringstream OS;
  OS << "int f0(int " << (RootSig ? "pos " : "") << "a) { int pos p = "
     << (EditedFn == 0 ? 11 + Variant : 11) << "; return a + p; }\n";
  for (int I = 1; I < NumFns; ++I) {
    // Enough qualifier work per body (derived pos locals, an assignment
    // chain) that checking a function costs clearly more than hashing it.
    // Each function gets a distinct literal so a cold Session's prover
    // cache cannot collapse the whole unit into one proof per shape.
    OS << "int f" << I << "(int a) { int pos p = "
       << (EditedFn == I ? 2100 + Variant : 21 + I)
       << "; int pos q = p * p; int pos r = q * p + 1;"
          " int pos s = r + q; int pos t = s * s + p;"
          " int x = t + a; return f"
       << (I - 1) << "(x) + " << I % 7 << "; }\n";
  }
  OS << "int main() { return f" << (NumFns - 1) << "(1); }\n";
  return OS.str();
}

/// The session's mean qualcheck-phase duration (front end excluded) — the
/// part of the latency the incremental layer can actually shrink.
double qualcheckSeconds(Session &S) {
  stats::Registry::Snapshot Snap = S.metrics().snapshot();
  auto It = Snap.Histograms.find("phase.qualcheck_seconds");
  return It == Snap.Histograms.end() ? 0.0 : It->second.mean();
}

/// One warm recheck through a fresh Session sharing \p E (the server's
/// per-request shape). Returns elapsed seconds; stats land in \p Stats and
/// the checking-phase time in \p Phase when non-null.
double recheckOnce(Engine &E, const std::string &Source,
                   checker::incremental::RecheckStats &Stats,
                   double *Phase = nullptr) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.SharedIncremental = &E;
  Opts.IncrementalUnit = "bench";
  Session S(Opts);
  auto Start = std::chrono::steady_clock::now();
  Session::RecheckOutcome Out = S.recheck(Source);
  double Elapsed = secondsSince(Start);
  if (!Out.FrontEndOk) {
    std::fprintf(stderr, "bench_incremental: front end rejected the unit\n");
    std::exit(1);
  }
  Stats = Out.Stats;
  if (Phase)
    *Phase = qualcheckSeconds(S);
  return Elapsed;
}

double checkOnce(const std::string &Source, double *Phase = nullptr) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Session S(Opts);
  auto Start = std::chrono::steady_clock::now();
  Session::CheckOutcome Out = S.check(Source);
  double Elapsed = secondsSince(Start);
  if (!Out.FrontEndOk)
    std::exit(1);
  if (Phase)
    *Phase = qualcheckSeconds(S);
  return Elapsed;
}

void measure(bench::Report &R) {
  constexpr int Reps = 10;
  checker::incremental::RecheckStats Stats;

  // Cold baseline: a full check in a fresh Session, as the CLI pays it.
  double Cold = 0, ColdPhase = 0;
  {
    double Total = 0, PhaseTotal = 0, Phase = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += checkOnce(program(7, I % 2), &Phase);
      PhaseTotal += Phase;
    }
    Cold = Total / Reps;
    ColdPhase = PhaseTotal / Reps;
    R.add("check_cold_seconds", Cold, "seconds",
          "mean full `check` of the " + std::to_string(NumFns) +
              "-function unit in a fresh Session");
  }

  Engine E;
  recheckOnce(E, program(7, 0), Stats); // populate the store
  const unsigned UnitsTotal = Stats.Units;

  // No-op recheck: the whole unit replays from the verdict store.
  {
    double Total = 0;
    for (int I = 0; I < Reps; ++I)
      Total += recheckOnce(E, program(7, 0), Stats);
    R.add("recheck_noop_warm_seconds", Total / Reps, "seconds",
          "mean warm recheck of the unchanged unit (every work item served "
          "from the store)");
  }

  // Body edit: a fresh constant each rep, so every rep is a genuine
  // single-function edit against a warm store (never a replayed variant).
  unsigned BodyEditRechecked = 0;
  double BodyEdit = 0, BodyEditPhase = 0;
  {
    double Total = 0, PhaseTotal = 0, Phase = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += recheckOnce(E, program(7, I + 1), Stats, &Phase);
      PhaseTotal += Phase;
      BodyEditRechecked = Stats.Rechecked;
    }
    BodyEdit = Total / Reps;
    BodyEditPhase = PhaseTotal / Reps;
    R.add("recheck_body_edit_warm_seconds", BodyEdit, "seconds",
          "mean warm recheck after a one-function body edit");
  }

  // Signature edit at the chain root: the invalidation closure re-checks
  // every transitive caller — warm recheck's worst case.
  unsigned SigEditRechecked = 0;
  {
    double Total = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += recheckOnce(E, program(7, 0, I % 2 == 0), Stats);
      SigEditRechecked = Stats.Rechecked;
    }
    R.add("recheck_sig_edit_warm_seconds", Total / Reps, "seconds",
          "mean warm recheck after a signature edit at the call chain's "
          "root (transitive callers re-check)");
  }

  R.add("work_items_total", UnitsTotal, "count",
        "work items in the unit (functions + globals)");
  R.add("work_items_rechecked_body_edit", BodyEditRechecked, "count",
        "items re-checked by a warm single-function body edit");
  R.add("work_items_rechecked_sig_edit", SigEditRechecked, "count",
        "items re-checked by a warm root signature edit");
  R.add("body_edit_speedup", BodyEdit > 0 ? Cold / BodyEdit : 0, "ratio",
        "cold full check latency / warm body-edit latency (front end "
        "included, so unit-size bound)");
  R.add("qualcheck_cold_seconds", ColdPhase, "seconds",
        "mean checking-phase time of the cold full check (front end "
        "excluded)");
  R.add("qualcheck_body_edit_warm_seconds", BodyEditPhase, "seconds",
        "mean checking-phase time of the warm body-edit recheck (front end "
        "excluded)");
  R.add("qualcheck_body_edit_speedup",
        BodyEditPhase > 0 ? ColdPhase / BodyEditPhase : 0, "ratio",
        "cold checking-phase time / warm body-edit checking-phase time");

  const std::string Counts = std::to_string(BodyEditRechecked) + " body, " +
                             std::to_string(SigEditRechecked) + " sig, of " +
                             std::to_string(UnitsTotal) + " items";
  R.gate("body_edit_rechecks_fewer", bench::GateKind::Correctness,
         BodyEditRechecked > 0 && BodyEditRechecked < UnitsTotal,
         "0 < body < total: " + Counts);
  R.gate("sig_edit_rechecks_callers", bench::GateKind::Correctness,
         BodyEditRechecked < SigEditRechecked &&
             SigEditRechecked <= UnitsTotal,
         "body < sig <= total: " + Counts);
}

} // namespace

// The steady-state warm paths on their own, for --benchmark_filter runs.
static void BM_WarmNoopRecheck(benchmark::State &State) {
  Engine E;
  checker::incremental::RecheckStats Stats;
  const std::string Source = program(7, 0);
  recheckOnce(E, Source, Stats);
  for (auto _ : State) {
    recheckOnce(E, Source, Stats);
    benchmark::DoNotOptimize(Stats.Hits);
  }
}
BENCHMARK(BM_WarmNoopRecheck)->Unit(benchmark::kMillisecond);

static void BM_WarmBodyEditRecheck(benchmark::State &State) {
  Engine E;
  checker::incremental::RecheckStats Stats;
  recheckOnce(E, program(7, 0), Stats);
  int Variant = 1;
  for (auto _ : State) {
    recheckOnce(E, program(7, Variant++), Stats);
    benchmark::DoNotOptimize(Stats.Rechecked);
  }
}
BENCHMARK(BM_WarmBodyEditRecheck)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bench::Report R("bench_incremental", "incremental",
                  "incremental edit-to-verdict latency");
  measure(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
