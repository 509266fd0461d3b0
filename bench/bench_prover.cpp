//===- bench_prover.cpp - Prover microbenchmarks and ablations ------------===//
//
// Ablation 3 from DESIGN.md: obligations discharge at small instantiation
// depth. Sweeps the round bound to find the depth each obligation family
// needs, and benchmarks the prover's core operations.
//
// Also runs the builtin qualifier soundness suite under both search
// engines (the incremental trail-based core and the copy-per-node
// reference core) and replays it from a persisted prover cache, writing
// BENCH_prover.json (bench/Report.h). Correctness gates: per-obligation
// verdicts agree across the engines, and the warm replay needs no prover
// call. Timing gates follow section 4 of the paper at 10x slack: value
// qualifiers under 10 s in total, reference qualifiers under 300 s.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "prover/ProverCache.h"
#include "prover/Theory.h"
#include "qual/Builtins.h"
#include "soundness/Soundness.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace stq;
using namespace stq::prover;
using namespace stq::soundness;

namespace {

void printTable() {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  qual::loadAllBuiltinQualifiers(Set, Diags);
  std::printf("=== Prover ablation: instantiation-round bound ===\n");
  std::printf("%-11s", "qualifier");
  for (unsigned Rounds : {0u, 1u, 2u, 3u, 4u, 8u})
    std::printf(" %8s%u", "rounds<=", Rounds);
  std::printf("\n");
  for (const char *Name : {"pos", "nonzero", "nonnull", "unique",
                           "unaliased"}) {
    std::printf("%-11s", Name);
    for (unsigned Rounds : {0u, 1u, 2u, 3u, 4u, 8u}) {
      ProverOptions Options;
      Options.MaxRounds = Rounds;
      SoundnessChecker SC(Set, Options);
      SoundnessReport R = SC.checkQualifier(Name);
      std::printf(" %9s", R.sound() ? "proved" : "-");
    }
    std::printf("\n");
  }
  std::printf("(every obligation discharges within a handful of "
              "instantiation rounds, as with Simplify's matching depth)\n\n");
}

std::string boundText(double Seconds, double BoundSeconds) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f s measured, bound %.0f s", Seconds,
                BoundSeconds);
  return Buf;
}

/// Runs the whole builtin suite once per engine (sequential, uncached, so
/// the numbers are pure prover time) and once more against a persisted
/// cache roundtrip.
void measureEngines(bench::Report &R) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  qual::loadAllBuiltinQualifiers(Set, Diags);

  ProverOptions Incremental;
  Incremental.Engine = EngineKind::Incremental;
  ProverOptions Reference;
  Reference.Engine = EngineKind::Reference;

  std::vector<SoundnessReport> Inc =
      SoundnessChecker(Set, Incremental).checkAll(1);
  std::vector<SoundnessReport> Ref =
      SoundnessChecker(Set, Reference).checkAll(1);

  double IncSeconds = 0, RefEngineSeconds = 0, ValueSeconds = 0,
         RefQualSeconds = 0;
  unsigned Obligations = 0;
  std::string Diverged;
  for (size_t QI = 0; QI < Inc.size(); ++QI) {
    const SoundnessReport &IR = Inc[QI];
    if (IR.IsFlowQualifier)
      continue;
    const qual::QualifierDef *Q = Set.find(IR.Qual);
    bool IsRef = Q && Q->IsRef;
    for (size_t OI = 0; OI < IR.Obligations.size(); ++OI) {
      const Obligation &O = IR.Obligations[OI];
      // checkAll's obligation order is deterministic, so the two engines'
      // reports align index for index.
      const Obligation &RO = Ref[QI].Obligations[OI];
      bool Match = O.Result == RO.Result;
      std::string Name = IR.Qual + "_" + std::to_string(OI);
      R.add(Name + "_seconds", O.Stats.Seconds, "seconds",
            std::string(IsRef ? "ref " : "value ") + O.Kind + ": " +
                O.Description + " -> " + resultName(O.Result));
      R.add(Name + "_reference_seconds", RO.Stats.Seconds, "seconds",
            std::string("reference engine -> ") + resultName(RO.Result) +
                (Match ? "" : " (verdicts diverge)"));
      R.add(Name + "_propagations", static_cast<double>(O.Stats.Propagations),
            "count");
      R.add(Name + "_instantiations", O.Stats.Instantiations, "count");
      if (!Match)
        Diverged += (Diverged.empty() ? "" : ", ") + Name;
      ++Obligations;
      IncSeconds += O.Stats.Seconds;
      RefEngineSeconds += RO.Stats.Seconds;
      (IsRef ? RefQualSeconds : ValueSeconds) += O.Stats.Seconds;
    }
  }

  // The cross-run replay: prove once into a cache, persist it, load it
  // into a fresh cache, and prove again. The warm pass must discharge
  // every obligation without a single prover call.
  double WarmHitRate = 0, WarmProverCalls = -1, PersistHits = 0;
  {
    ProverCache Cold;
    SoundnessChecker(Set, Incremental, nullptr, &Cold, nullptr).checkAll(1);
    std::string Path = "BENCH_prover.cache.tmp";
    if (Cold.save(Path)) {
      ProverCache Warm;
      Warm.load(Path);
      SoundnessChecker(Set, Incremental, nullptr, &Warm, nullptr).checkAll(1);
      CacheStats CS = Warm.stats();
      WarmHitRate = CS.hitRate();
      WarmProverCalls = static_cast<double>(CS.Misses);
      PersistHits = static_cast<double>(CS.PersistHits);
      std::remove(Path.c_str());
    }
  }

  constexpr double ValueBound = 10.0, RefBound = 300.0;
  R.add("obligations", Obligations, "count",
        "non-flow builtin soundness obligations");
  R.add("incremental_seconds", IncSeconds, "seconds",
        "incremental engine, whole suite");
  R.add("reference_seconds", RefEngineSeconds, "seconds",
        "reference engine, whole suite");
  R.add("speedup", IncSeconds > 0 ? RefEngineSeconds / IncSeconds : 0,
        "ratio", "reference time / incremental time");
  R.add("value_seconds", ValueSeconds, "seconds",
        "incremental time over value qualifiers");
  R.add("value_bound_seconds", ValueBound, "seconds",
        "10x the paper's one-second section 4 bound");
  R.add("ref_seconds", RefQualSeconds, "seconds",
        "incremental time over reference qualifiers");
  R.add("ref_bound_seconds", RefBound, "seconds",
        "10x the paper's thirty-second section 4 bound");
  R.add("warm_cache_hit_rate", WarmHitRate, "ratio",
        "cache hit rate of the replay from a saved and reloaded cache");
  R.add("warm_prover_calls", WarmProverCalls, "count",
        "cache misses on the warm replay (-1: the cache could not be saved)");
  R.add("persist_hits", PersistHits, "count",
        "hits served by the save/load roundtrip");

  R.gate("verdicts_match", bench::GateKind::Correctness, Diverged.empty(),
         Diverged.empty() ? "every obligation's verdict agrees across engines"
                          : "verdicts diverge: " + Diverged);
  R.gate("warm_prover_calls_zero", bench::GateKind::Correctness,
         WarmProverCalls == 0, "the warm replay needs no prover call");
  R.gate("value_qualifier_bound", bench::GateKind::Timing,
         ValueSeconds <= ValueBound, boundText(ValueSeconds, ValueBound));
  R.gate("ref_qualifier_bound", bench::GateKind::Timing,
         RefQualSeconds <= RefBound, boundText(RefQualSeconds, RefBound));
}

} // namespace

static void BM_CongruenceClosureChain(benchmark::State &State) {
  for (auto _ : State) {
    TermArena A;
    // A chain x0=x1=...=xN with f-applications; congruence must join all
    // f(x_i).
    unsigned N = static_cast<unsigned>(State.range(0));
    std::vector<TermId> Xs, Fs;
    for (unsigned I = 0; I < N; ++I) {
      Xs.push_back(A.app("x" + std::to_string(I)));
      Fs.push_back(A.app("f", {Xs.back()}));
    }
    CongruenceClosure CC(A);
    for (unsigned I = 0; I + 1 < N; ++I)
      CC.assertEq(Xs[I], Xs[I + 1]);
    benchmark::DoNotOptimize(CC.isEqual(Fs.front(), Fs.back()));
  }
}
BENCHMARK(BM_CongruenceClosureChain)->Arg(64)->Arg(256)->Arg(1024);

static void BM_ProveProductSign(benchmark::State &State) {
  for (auto _ : State) {
    Prover P;
    P.addArithmeticSignAxioms();
    TermArena &A = P.arena();
    TermId X = A.app("x"), Y = A.app("y");
    P.addHypothesis(fGt(X, A.intConst(0)));
    P.addHypothesis(fGt(Y, A.intConst(0)));
    auto R = P.prove(fGt(A.app("times", {X, Y}), A.intConst(0)));
    if (R != ProofResult::Proved)
      State.SkipWithError("obligation failed");
  }
}
BENCHMARK(BM_ProveProductSign)->Unit(benchmark::kMicrosecond);

static void BM_ProveSelectUpdateSplit(benchmark::State &State) {
  for (auto _ : State) {
    Prover P;
    TermArena &A = P.arena();
    TermId Vm = A.var("m"), Vk = A.var("k"), Vv = A.var("v"),
           Vj = A.var("j");
    TermId Upd = A.app("update", {Vm, Vk, Vv});
    P.addAxiom("sel-eq",
               fForall({"m", "k", "v"},
                       fEq(A.app("select", {Upd, Vk}), Vv),
                       {MultiPattern{Upd}}));
    P.addAxiom("sel-other",
               fForall({"m", "k", "v", "j"},
                       fOr({fEq(Vj, Vk),
                            fEq(A.app("select", {Upd, Vj}),
                                A.app("select", {Vm, Vj}))}),
                       {MultiPattern{A.app("select", {Upd, Vj})}}));
    TermId M = A.app("m0"), K = A.app("k0"), V = A.app("v0"),
           J = A.app("j0");
    P.addHypothesis(fNe(J, K));
    TermId Sel = A.app("select", {A.app("update", {M, K, V}), J});
    auto R = P.prove(fEq(Sel, A.app("select", {M, J})));
    if (R != ProofResult::Proved)
      State.SkipWithError("obligation failed");
  }
}
BENCHMARK(BM_ProveSelectUpdateSplit)->Unit(benchmark::kMicrosecond);

static void BM_UniquePreservationObligation(benchmark::State &State) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  qual::loadBuiltinQualifiers({"unique"}, Set, Diags);
  for (auto _ : State) {
    SoundnessChecker SC(Set);
    SoundnessReport R = SC.checkQualifier("unique");
    if (!R.sound())
      State.SkipWithError("unique did not verify");
    benchmark::DoNotOptimize(R.TotalSeconds);
  }
}
BENCHMARK(BM_UniquePreservationObligation)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  bench::Report R("bench_prover", "prover",
                  "Prover engine benchmark (incremental vs reference)");
  measureEngines(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
