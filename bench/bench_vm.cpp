//===- bench_vm.cpp - VM vs interpreter run-phase speedup -----------------===//
//
// Measures the register-bytecode VM against its reason to exist: executing
// an instrumented program should be several times faster than tree-walking
// it, with byte-identical observable behavior. Each workload-farm program
// is front-ended and checked once, compiled once (with and without the
// prover-driven guard-elision pass), and then the run phase alone is timed
// for all three engines (interpreter, VM with elision, VM without) as the
// best of several trials of many repetitions.
//
// Before timing, the three engines' results are compared field by field —
// status, exit value, output, trap message, step count, and (between the
// two non-eliding engines) executed-check counts. A mismatch is a
// correctness bug: the `engines_agree` correctness gate fails the bench in
// any environment.
//
// The headline statistic is the farm run-phase speedup: total interpreter
// time over total VM time across the whole farm, weighting each program by
// how long it actually runs. The acceptance bound CI pins is speedup >= 3x
// (a timing gate); the report (BENCH_vm.json, bench/Report.h) also records
// per-workload speedups, compile+elide cost, elided vs residual guard
// counts, and the residual-check overhead the elision pass removes
// (VM-without-elision time over VM-with-elision time).
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "checker/Checker.h"
#include "interp/Interp.h"
#include "qual/Builtins.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace stq;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One farm member: the generated program, the qualifiers it exercises,
/// and how many repetitions one timing trial runs (sized so every
/// workload contributes comparable wall-clock per trial).
struct FarmMember {
  workloads::GeneratedWorkload W;
  std::vector<std::string> Builtins;
  int Reps;
};

/// The scaled grep-dfa shares its generator's name; the report keys
/// entries by name, so it gets its own.
workloads::GeneratedWorkload grepDfaX4() {
  workloads::GeneratedWorkload W = workloads::makeGrepDfa(4);
  W.Name += "-x4";
  return W;
}

std::vector<FarmMember> farm() {
  using namespace stq::workloads;
  return {
      {makeGrepDfa(), {"nonnull"}, 30},
      {grepDfaX4(), {"nonnull"}, 12},
      {makeBftpd(), {"untainted"}, 120},
      {makeMingetty(), {"untainted"}, 60},
      {makeIdentd(), {"untainted"}, 120},
      {makeChecksumKernel(), {"pos", "neg", "nonzero"}, 8},
  };
}

/// Field-by-field result comparison. Elision legitimately skips executed
/// checks, so ChecksExecuted is only compared when \p CompareChecks.
bool sameResult(const interp::RunResult &A, const interp::RunResult &B,
                bool CompareChecks, std::string &Why) {
  if (A.Status != B.Status) {
    Why = "status";
    return false;
  }
  if (A.ExitValue != B.ExitValue) {
    Why = "exit value";
    return false;
  }
  if (A.Output != B.Output) {
    Why = "output";
    return false;
  }
  if (A.TrapMessage != B.TrapMessage) {
    Why = "trap message";
    return false;
  }
  if (A.Steps != B.Steps) {
    Why = "step count";
    return false;
  }
  if (A.CheckFailures.size() != B.CheckFailures.size()) {
    Why = "check failures";
    return false;
  }
  if (CompareChecks && A.ChecksExecuted != B.ChecksExecuted) {
    Why = "executed-check count";
    return false;
  }
  return true;
}

/// Best-of-trials per-run times for the three engines, measured
/// interleaved (every trial times all three back to back) so CPU
/// frequency drift across the bench run cannot bias the ratios.
struct EngineTimes {
  double Interp = 1e18;
  double Vm = 1e18;
  double VmNoElide = 1e18;
};

template <typename InterpFn, typename VmFn, typename VmPlainFn>
EngineTimes bestPerRun(int Reps, InterpFn &&RunInterp, VmFn &&RunVm,
                       VmPlainFn &&RunVmPlain) {
  constexpr int Trials = 5;
  EngineTimes Best;
  for (int T = 0; T < Trials; ++T) {
    double T0 = now();
    for (int I = 0; I < Reps; ++I)
      RunInterp();
    double T1 = now();
    for (int I = 0; I < Reps; ++I)
      RunVm();
    double T2 = now();
    for (int I = 0; I < Reps; ++I)
      RunVmPlain();
    double T3 = now();
    Best.Interp = std::min(Best.Interp, T1 - T0);
    Best.Vm = std::min(Best.Vm, T2 - T1);
    Best.VmNoElide = std::min(Best.VmNoElide, T3 - T2);
  }
  Best.Interp /= Reps;
  Best.Vm /= Reps;
  Best.VmNoElide /= Reps;
  return Best;
}

void measure(bench::Report &R) {
  double TotInterp = 0, TotVm = 0, TotVmNoElide = 0;
  double TotCompile = 0;
  uint64_t TotQuals = 0, TotElided = 0;
  std::string Diverged;

  for (const FarmMember &F : farm()) {
    qual::QualifierSet Quals;
    DiagnosticEngine Diags;
    qual::loadBuiltinQualifiers(F.Builtins, Quals, Diags);
    std::unique_ptr<cminus::Program> Prog;
    // Keep every cast's run-time check in RuntimeChecks (the checker
    // normally strips statically derivable ones itself): the VM's
    // prover-driven elision pass is the subject under measurement, so
    // the full residual-check load must reach all three engines and
    // only that pass may remove any of it.
    checker::CheckerOptions CO;
    CO.ElideProvableCastChecks = false;
    checker::CheckResult CR =
        checker::checkSource(F.W.Source, Quals, Diags, Prog, CO);
    if (!Prog || Diags.hasErrors()) {
      std::fprintf(stderr, "bench_vm: front end rejected %s\n",
                   F.W.Name.c_str());
      std::exit(1);
    }

    vm::VmOptions VO;
    VO.ProgramCheckedClean = CR.ok();
    double C0 = now();
    auto CP = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VO);
    double CompileSecs = now() - C0;
    TotCompile += CompileSecs;

    vm::VmOptions VOPlain = VO;
    VOPlain.ElideChecks = false;
    auto CPPlain = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VOPlain);

    // Correctness before timing: the interpreter is the oracle.
    interp::RunResult RI =
        interp::runProgram(*Prog, Quals, CR.RuntimeChecks, VO.Interp);
    interp::RunResult RV = vm::execute(*CP, VO.Interp);
    interp::RunResult RVPlain = vm::execute(*CPPlain, VO.Interp);
    std::string Why;
    if (!sameResult(RI, RVPlain, /*CompareChecks=*/true, Why) ||
        !sameResult(RI, RV, /*CompareChecks=*/false, Why)) {
      Diverged += (Diverged.empty() ? "" : ", ") + F.W.Name + " (" + Why + ")";
      continue;
    }

    EngineTimes Times = bestPerRun(
        F.Reps,
        [&] {
          benchmark::DoNotOptimize(
              interp::runProgram(*Prog, Quals, CR.RuntimeChecks, VO.Interp));
        },
        [&] { benchmark::DoNotOptimize(vm::execute(*CP, VO.Interp)); },
        [&] { benchmark::DoNotOptimize(vm::execute(*CPPlain, VO.Interp)); });
    double InterpSecs = Times.Interp;
    double VmSecs = Times.Vm;
    double VmPlainSecs = Times.VmNoElide;

    TotInterp += InterpSecs;
    TotVm += VmSecs;
    TotVmNoElide += VmPlainSecs;
    TotQuals += CP->Elision.GuardQuals;
    TotElided += CP->Elision.Elided;

    R.add(F.W.Name + "_interp_run_seconds", InterpSecs, "seconds",
          "interpreter run phase, best of 5 trials x " +
              std::to_string(F.Reps) + " reps");
    R.add(F.W.Name + "_vm_run_seconds", VmSecs, "seconds",
          "VM run phase with guard elision, same trials");
    R.add(F.W.Name + "_vm_noelide_run_seconds", VmPlainSecs, "seconds",
          "VM run phase with every compiled guard residual");
    R.add(F.W.Name + "_speedup", VmSecs > 0 ? InterpSecs / VmSecs : 0,
          "ratio", "interpreter time / VM time for this workload");
  }

  double Speedup = TotVm > 0 ? TotInterp / TotVm : 0;
  double SpeedupNoElide = TotVmNoElide > 0 ? TotInterp / TotVmNoElide : 0;
  R.add("farm_interp_run_seconds", TotInterp, "seconds",
        "summed per-run interpreter time across the farm");
  R.add("farm_vm_run_seconds", TotVm, "seconds",
        "summed per-run VM time across the farm");
  R.add("farm_speedup", Speedup, "ratio",
        "farm run-phase speedup (total interpreter time / total VM time)");
  R.add("farm_speedup_noelide", SpeedupNoElide, "ratio",
        "farm speedup with the elision pass disabled (every compiled guard "
        "executes)");
  R.add("residual_check_overhead", TotVm > 0 ? TotVmNoElide / TotVm : 0,
        "ratio",
        "VM-without-elision time / VM-with-elision time: the run-phase cost "
        "the elision pass removes");
  R.add("compile_elide_seconds", TotCompile, "seconds",
        "one-time compile + elide cost across the farm");
  R.add("guard_quals_total", static_cast<double>(TotQuals), "count",
        "individual qualifier checks compiled across the farm");
  R.add("guard_quals_elided", static_cast<double>(TotElided), "count",
        "qualifier checks discharged by the prover-driven elision pass");
  R.add("guard_quals_residual", static_cast<double>(TotQuals - TotElided),
        "count", "qualifier checks still evaluated at run time");

  R.gate("engines_agree", bench::GateKind::Correctness, Diverged.empty(),
         Diverged.empty()
             ? "interpreter, VM and VM without elision agree on every "
               "workload"
             : "VM diverges from the interpreter: " + Diverged);
  R.gate("farm_speedup_3x", bench::GateKind::Timing, Speedup >= 3.0,
         "farm run-phase speedup of at least 3x");
}

/// Shared setup for the steady-state BENCHMARK wrappers below.
struct KernelFixture {
  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  checker::CheckResult CR;
  std::unique_ptr<vm::CompiledProgram> CP;
  vm::VmOptions VO;

  KernelFixture() {
    workloads::GeneratedWorkload W = workloads::makeChecksumKernel();
    qual::loadBuiltinQualifiers({"pos", "neg", "nonzero"}, Quals, Diags);
    CR = checker::checkSource(W.Source, Quals, Diags, Prog, {});
    VO.ProgramCheckedClean = CR.ok();
    if (Prog)
      CP = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VO);
  }
};

KernelFixture &kernel() {
  static KernelFixture F;
  return F;
}

} // namespace

static void BM_InterpChecksumKernel(benchmark::State &State) {
  KernelFixture &F = kernel();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        interp::runProgram(*F.Prog, F.Quals, F.CR.RuntimeChecks, F.VO.Interp));
}
BENCHMARK(BM_InterpChecksumKernel)->Unit(benchmark::kMillisecond);

static void BM_VmChecksumKernel(benchmark::State &State) {
  KernelFixture &F = kernel();
  for (auto _ : State)
    benchmark::DoNotOptimize(vm::execute(*F.CP, F.VO.Interp));
}
BENCHMARK(BM_VmChecksumKernel)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bench::Report R("bench_vm", "vm", "VM vs interpreter run phase");
  measure(R);
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
