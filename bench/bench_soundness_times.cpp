//===- bench_soundness_times.cpp - Experiment S4 (section 4 timings) ------===//
//
// Regenerates the paper's soundness-checking timing claims: "The value
// qualifiers nonnull, nonzero, pos, and neg are each proven sound by our
// checker in under one second. The reference qualifiers unique and
// unaliased are each proven sound in under 30 seconds." The shape to
// reproduce: every qualifier verifies, and reference qualifiers cost more
// than value qualifiers (more obligations, quantified invariants, case
// splits).
//
//===----------------------------------------------------------------------===//

#include "qual/Builtins.h"
#include "qual/QualParser.h"
#include "soundness/Soundness.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace stq;
using namespace stq::soundness;

namespace {

qual::QualifierSet loadAll() {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  qual::loadAllBuiltinQualifiers(Set, Diags);
  return Set;
}

void printTable() {
  qual::QualifierSet Set = loadAll();
  SoundnessChecker SC(Set);
  std::printf("=== Section 4: automated soundness checking ===\n");
  std::printf("%-11s %-8s %12s %12s %10s %8s\n", "qualifier", "kind",
              "obligations", "failed", "seconds", "bound");
  double ValueTotal = 0, RefTotal = 0;
  for (const char *Name : {"pos", "neg", "nonzero", "nonnull", "tainted",
                           "untainted", "unique", "unaliased"}) {
    SoundnessReport R = SC.checkQualifier(Name);
    const qual::QualifierDef *Q = Set.find(Name);
    bool IsRef = Q && Q->IsRef;
    (IsRef ? RefTotal : ValueTotal) += R.TotalSeconds;
    std::printf("%-11s %-8s %12zu %12u %10.4f %8s\n", Name,
                R.IsFlowQualifier ? "flow" : (IsRef ? "ref" : "value"),
                R.Obligations.size(), R.failedCount(), R.TotalSeconds,
                IsRef ? "<30s" : "<1s");
  }
  std::printf("value qualifiers total: %.4fs (paper bound: <1s each)\n",
              ValueTotal);
  std::printf("reference qualifiers total: %.4fs (paper bound: <30s "
              "each)\n\n",
              RefTotal);
}

void benchQualifier(benchmark::State &State, const char *Name) {
  qual::QualifierSet Set = loadAll();
  for (auto _ : State) {
    SoundnessChecker SC(Set);
    SoundnessReport R = SC.checkQualifier(Name);
    benchmark::DoNotOptimize(R.sound());
  }
}

} // namespace

static void BM_SoundnessPos(benchmark::State &S) { benchQualifier(S, "pos"); }
static void BM_SoundnessNeg(benchmark::State &S) { benchQualifier(S, "neg"); }
static void BM_SoundnessNonzero(benchmark::State &S) {
  benchQualifier(S, "nonzero");
}
static void BM_SoundnessNonnull(benchmark::State &S) {
  benchQualifier(S, "nonnull");
}
static void BM_SoundnessUnique(benchmark::State &S) {
  benchQualifier(S, "unique");
}
static void BM_SoundnessUnaliased(benchmark::State &S) {
  benchQualifier(S, "unaliased");
}
BENCHMARK(BM_SoundnessPos)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoundnessNeg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoundnessNonzero)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoundnessNonnull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoundnessUnique)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoundnessUnaliased)->Unit(benchmark::kMillisecond);

// The negative path: the paper's bogus subtraction rule must be rejected,
// and rejection should not be meaningfully slower than acceptance.
static void BM_SoundnessRejectsBogusRule(benchmark::State &State) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  qual::parseQualifiers(R"(
value qualifier neg(int Expr E)
  case E of
    decl int Const C:
      C, where C < 0
  invariant value(E) < 0
value qualifier pos(int Expr E)
  case E of
    decl int Expr E1, E2:
      E1 - E2, where pos(E1) && pos(E2)
  invariant value(E) > 0
)",
                        Set, Diags);
  qual::checkWellFormed(Set, Diags);
  for (auto _ : State) {
    SoundnessChecker SC(Set);
    SoundnessReport R = SC.checkQualifier("pos");
    if (R.sound())
      State.SkipWithError("bogus rule was accepted");
    benchmark::DoNotOptimize(R.failedCount());
  }
}
BENCHMARK(BM_SoundnessRejectsBogusRule)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
