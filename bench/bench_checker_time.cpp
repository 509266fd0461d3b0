//===- bench_checker_time.cpp - Experiment C6 (checking overhead) ---------===//
//
// Regenerates the section 6 claim that "the extra compile time for
// performing qualifier checking in CIL is under one second" on every
// experiment, and sweeps program scale to show near-linear behavior. Also
// runs the DESIGN.md ablation: hasQualifier memoization on vs off.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/ConstraintInference.h"
#include "driver/Session.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

using namespace stq;
using namespace stq::workloads;

namespace {

struct Prepared {
  std::unique_ptr<Session> S;
  std::unique_ptr<cminus::Program> Prog;
  const qual::QualifierSet &quals() const { return S->qualifiers(); }
};

std::unique_ptr<Prepared> prepare(const GeneratedWorkload &W,
                                  const std::vector<std::string> &Names) {
  auto P = std::make_unique<Prepared>();
  SessionOptions Opts;
  Opts.Builtins = Names;
  P->S = std::make_unique<Session>(Opts);
  P->Prog = P->S->frontEnd(W.Source).Program;
  return P;
}

void printTable() {
  std::printf("=== Section 6: qualifier-checking time ===\n");
  std::printf("%-12s %8s %10s %12s %10s\n", "workload", "lines", "derefs",
              "check time", "bound");
  for (unsigned Scale : {1u, 2u, 4u, 8u}) {
    GeneratedWorkload W = makeGrepDfa(Scale);
    auto P = prepare(W, {"nonnull"});
    auto Start = std::chrono::steady_clock::now();
    checker::QualChecker Checker(*P->Prog, P->quals(), P->S->diags(), {});
    auto Result = Checker.run();
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    std::printf("%-12s %8u %10u %11.4fs %10s\n",
                ("dfa x" + std::to_string(Scale)).c_str(), W.Lines,
                Result.Stats.DerefSites, Secs, Scale == 1 ? "<1s" : "");
  }
  std::printf("(paper: checking adds under one second on every "
              "experiment)\n\n");

  // The inference extension (section 8 future work): how many of the
  // manual annotations can be discovered automatically?
  GeneratedWorkload W = makeGrepDfa();
  auto P = prepare(W, {"nonnull"});
  auto Start = std::chrono::steady_clock::now();
  checker::InferenceReport Report =
      checker::inferWithConstraints(*P->Prog, P->quals(), {});
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  std::printf("=== Extension: qualifier inference ===\n");
  std::printf("grep-dfa (nonnull): inferred %u annotation(s) in %u "
              "round(s), %.3fs\n",
              Report.totalInferred(), Report.Stats.SolveRounds, Secs);
  std::printf("(correctly zero: every grep pointer originates at malloc, "
              "which may be NULL - Table 1's annotations are assumptions "
              "discharged by casts, not derivable facts)\n");

  // Where flows are derivable, inference eliminates the annotation
  // burden entirely.
  const char *Derivable =
      "int scale(int pos factor);\n"
      "int run(int reps) {\n"
      "  int step = 3;\n"
      "  int stride = step * 2;\n"
      "  int total = step + stride;\n"
      "  int window = 8;\n"
      "  for (int i = 0; i < reps; i = i + 1) total = total + stride;\n"
      "  return scale(stride) + total / window;\n"
      "}\n";
  SessionOptions IntOpts;
  IntOpts.Builtins = {"pos", "neg", "nonneg", "nonzero"};
  Session S2(IntOpts);
  auto Prog2 = S2.frontEnd(Derivable).Program;
  auto Out2 = checker::inferWithConstraints(*Prog2, S2.qualifiers(), {});
  std::printf("constants-rooted module (pos/nonneg/nonzero): inferred %u "
              "annotation(s) on %u variable(s) - including the int pos "
              "argument of scale() - with zero manual annotations\n\n",
              Out2.totalInferred(), Out2.Stats.Variables);
}

void benchChecker(benchmark::State &State, unsigned Scale, bool Memoize) {
  GeneratedWorkload W = makeGrepDfa(Scale);
  auto P = prepare(W, {"nonnull"});
  for (auto _ : State) {
    checker::CheckerOptions Options;
    Options.Memoize = Memoize;
    DiagnosticEngine Scratch;
    checker::QualChecker Checker(*P->Prog, P->quals(), Scratch, Options);
    auto Result = Checker.run();
    benchmark::DoNotOptimize(Result.QualErrors);
  }
  State.counters["lines"] = W.Lines;
}

} // namespace

static void BM_InferenceGrep(benchmark::State &State) {
  GeneratedWorkload W = makeGrepDfa();
  auto P = prepare(W, {"nonnull"});
  for (auto _ : State) {
    auto Report = checker::inferWithConstraints(*P->Prog, P->quals(), {});
    benchmark::DoNotOptimize(Report.totalInferred());
  }
}
BENCHMARK(BM_InferenceGrep)->Unit(benchmark::kMillisecond);

static void BM_CheckScale(benchmark::State &State) {
  benchChecker(State, static_cast<unsigned>(State.range(0)), true);
}
BENCHMARK(BM_CheckScale)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Ablation 1 from DESIGN.md: memoized qualifier derivation vs naive
// re-derivation.
static void BM_CheckMemoized(benchmark::State &State) {
  benchChecker(State, 2, true);
}
static void BM_CheckUnmemoized(benchmark::State &State) {
  benchChecker(State, 2, false);
}
BENCHMARK(BM_CheckMemoized)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckUnmemoized)->Unit(benchmark::kMillisecond);

// Full qualifier load on the taint workload (multiple qualifiers active).
static void BM_CheckAllQualifiersOnBftpd(benchmark::State &State) {
  GeneratedWorkload W = makeBftpd();
  auto P = prepare(W, {"pos", "neg", "nonzero", "nonnull", "tainted",
                       "untainted", "unique", "unaliased"});
  for (auto _ : State) {
    DiagnosticEngine Scratch;
    checker::QualChecker Checker(*P->Prog, P->quals(), Scratch, {});
    auto Result = Checker.run();
    benchmark::DoNotOptimize(Result.QualErrors);
  }
}
BENCHMARK(BM_CheckAllQualifiersOnBftpd)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
