//===- bench_paper_figures.cpp - Experiments F2-F13 (worked examples) -----===//
//
// Runs the paper's worked code examples end to end (typecheck + execute)
// and reports each figure's expected outcome next to the measured one.
//
// Also measures the paper's headline timing claims (value-qualifier
// soundness under a second, reference-qualifier soundness under thirty,
// checking overhead under a second) as timing gates in BENCH_timings.json
// (bench/Report.h).
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "driver/Session.h"
#include "interp/Interp.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace stq;
using namespace stq::workloads;

namespace {

struct FigureCase {
  const char *Figure;
  const char *Expect;
  std::vector<std::string> Quals;
  const char *Source;
  unsigned ExpectedErrors;
};

const FigureCase Figures[] = {
    {"fig 2 (lcm with cast)", "typechecks; 1 run-time check",
     {"pos", "neg"},
     "int pos gcd(int pos n, int pos m);\n"
     "int pos lcm(int pos a, int pos b) {\n"
     "  int pos d = gcd(a, b);\n"
     "  int pos prod = a * b;\n"
     "  return (int pos) (prod / d);\n"
     "}\n",
     0},
    {"fig 3 (division restrict)", "1 error without nonzero denominator",
     {"pos", "neg", "nonzero"},
     "int f(int a, int b) { return a / b; }\n",
     1},
    {"fig 4 (printf(buf))", "1 error: buf not untainted",
     {"tainted", "untainted"},
     "int printf(char* untainted fmt, ...);\n"
     "void f(char* buf) { printf(buf); }\n",
     1},
    {"fig 6 (make_array)", "typechecks via the new assign rule",
     {"unique"},
     "int* unique array;\n"
     "void make_array(int n) {\n"
     "  array = (int*) malloc(sizeof(int) * n);\n"
     "  for (int i = 0; i < n; i = i + 1)\n"
     "    array[i] = i;\n"
     "}\n",
     0},
    {"sec 2.2.1 (q = p)", "1 error: unique may not be referred to",
     {"unique"},
     "int* unique p;\n"
     "void f() { int* q = p; }\n",
     1},
    {"fig 7 (&unaliased)", "1 error: address may not be taken",
     {"unaliased"},
     "void f() { int unaliased x; int* p; p = &x; }\n",
     1},
    {"fig 12 (*p unchecked)", "1 error per unproven dereference",
     {"nonnull"},
     "int f(int* p) { return *p; }\n",
     1},
    {"sec 2.1.2 (int y = x)", "value-qualified subtyping accepted",
     {"pos", "neg"},
     "int f() { int pos x = 3; int y = x; return y; }\n",
     0},
};

void printTable() {
  std::printf("=== The paper's worked examples ===\n");
  std::printf("%-26s %10s %10s   %s\n", "figure", "expected", "measured",
              "behavior");
  for (const FigureCase &F : Figures) {
    SessionOptions Options;
    Options.Builtins = F.Quals;
    Session S(Options);
    auto R = S.check(F.Source).Result;
    std::printf("%-26s %10u %10u   %s\n", F.Figure, F.ExpectedErrors,
                R.QualErrors, F.Expect);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// BENCH_timings.json: the paper's wall-clock claims, measured.
// ---------------------------------------------------------------------------

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Records one claim: the measured seconds, the paper's bound, and a
/// timing gate holding the measurement to the bound itself (not a slack
/// multiple of it).
void claim(bench::Report &R, const std::string &Name, const char *Claim,
           double Seconds, double BoundSeconds) {
  R.add(Name + "_seconds", Seconds, "seconds", Claim);
  R.add(Name + "_bound_seconds", BoundSeconds, "seconds",
        "the paper's bound for this claim");
  char Detail[96];
  std::snprintf(Detail, sizeof(Detail), "%.4f s measured, bound %.1f s",
                Seconds, BoundSeconds);
  R.gate(Name, bench::GateKind::Timing, Seconds <= BoundSeconds, Detail);
}

void measureTimings(bench::Report &R) {
  // Section 4: discharging a value qualifier's proof obligations takes
  // under a second.
  {
    SessionOptions Options;
    Options.Builtins = {"pos", "neg", "nonneg", "nonzero"};
    Session S(Options);
    S.loadQualifiers();
    auto Start = std::chrono::steady_clock::now();
    S.prove();
    claim(R, "value_qualifier_soundness",
          "section 4: value-qualifier soundness proofs finish in under a "
          "second",
          secondsSince(Start), 1.0);
  }

  // Section 5: reference-qualifier obligations quantify over the heap and
  // are allowed up to thirty seconds.
  {
    SessionOptions Options;
    Options.Builtins = {"nonnull", "unique", "unaliased"};
    Session S(Options);
    S.loadQualifiers();
    auto Start = std::chrono::steady_clock::now();
    S.prove();
    claim(R, "ref_qualifier_soundness",
          "section 5: reference-qualifier soundness proofs finish in under "
          "thirty seconds",
          secondsSince(Start), 30.0);
  }

  // Section 6: qualifier checking adds under one second of compile time on
  // every experiment (measured on the grep-dfa workload).
  {
    GeneratedWorkload W = makeGrepDfa();
    SessionOptions Options;
    Options.Builtins = {"nonnull"};
    Session S(Options);
    auto FE = S.frontEnd(W.Source);
    auto Start = std::chrono::steady_clock::now();
    if (FE.Ok) {
      DiagnosticEngine Scratch;
      checker::QualChecker Checker(*FE.Program, S.qualifiers(), Scratch, {});
      auto Result = Checker.run();
      benchmark::DoNotOptimize(Result.QualErrors);
    }
    claim(R, "check_overhead_grep_dfa",
          "section 6: qualifier checking adds under one second of compile "
          "time",
          secondsSince(Start), 1.0);
  }
}

} // namespace

// Figure 2 end-to-end: typecheck, execute, run-time check passes.
static void BM_Figure2EndToEnd(benchmark::State &State) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  S.loadQualifiers();
  const char *Source =
      "int pos gcd(int pos n, int pos m) {\n"
      "  if (m == n) return n;\n"
      "  if (m > n) return gcd(n, (int pos)(m - n));\n"
      "  return gcd(m, (int pos)(n - m));\n"
      "}\n"
      "int pos lcm(int pos a, int pos b) {\n"
      "  int pos d = gcd(a, b);\n"
      "  int pos prod = a * b;\n"
      "  return (int pos) (prod / d);\n"
      "}\n"
      "int main() { return lcm(21, 6); }\n";
  for (auto _ : State) {
    DiagnosticEngine Scratch;
    interp::RunResult R =
        interp::runSource(Source, S.qualifiers(), Scratch, {});
    if (!R.ok() || *R.ExitValue != 42)
      State.SkipWithError("figure 2 did not execute correctly");
    benchmark::DoNotOptimize(R.ChecksExecuted);
  }
}
BENCHMARK(BM_Figure2EndToEnd)->Unit(benchmark::kMillisecond);

// The run-time check firing (a failed cast is a fatal error).
static void BM_RuntimeCheckFailurePath(benchmark::State &State) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  S.loadQualifiers();
  const char *Source = "int main() {\n"
                       "  int y = -3;\n"
                       "  int pos x = (int pos) y;\n"
                       "  return x;\n"
                       "}\n";
  for (auto _ : State) {
    DiagnosticEngine Scratch;
    interp::RunResult R =
        interp::runSource(Source, S.qualifiers(), Scratch, {});
    if (R.Status != interp::RunStatus::CheckFailure)
      State.SkipWithError("check did not fire");
    benchmark::DoNotOptimize(R.CheckFailures.size());
  }
}
BENCHMARK(BM_RuntimeCheckFailurePath)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  bench::Report R("bench_paper_figures", "timings", "Paper timing claims");
  measureTimings(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
