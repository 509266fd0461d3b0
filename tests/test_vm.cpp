//===- test_vm.cpp - Bytecode VM vs interpreter byte-identity -------------===//
//
// The VM's contract is byte-for-byte agreement with src/interp on every
// observable: status, exit value, output, trap message bytes, fired
// checks, audits, format violations, and the fuel step count. These tests
// pin the contract per trap class, across the fuel boundary, and for the
// prover-driven check-elision pass (which must never change observable
// behavior, only the executed-check count).
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "checker/Checker.h"
#include "interp/Interp.h"
#include "qual/Builtins.h"
#include "qual/QualParser.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace stq;
using interp::RunResult;
using interp::RunStatus;

namespace {

qual::QualifierSet loadQuals(const std::vector<std::string> &Names,
                             const std::string &ExtraDsl = "") {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(qual::loadBuiltinQualifiers(Names, Set, Diags));
  if (!ExtraDsl.empty()) {
    EXPECT_TRUE(qual::parseQualifiers(ExtraDsl, Set, Diags));
  }
  return Set;
}

/// Everything observable about a run, as comparable text. The executed-
/// check count is optional: it is part of the interp/vm contract but
/// excluded when comparing elision on vs off.
std::string dump(const RunResult &R, bool WithCheckCount = true) {
  std::ostringstream OS;
  OS << "status=" << static_cast<int>(R.Status);
  if (R.ExitValue)
    OS << " exit=" << *R.ExitValue;
  OS << "\noutput=[" << R.Output << "]\ntrap=[" << R.TrapMessage << "]\n";
  for (const interp::CheckFailure &F : R.CheckFailures)
    OS << "check " << F.Loc.str() << " '" << F.Qual << "' " << F.ValueStr
       << "\n";
  for (const interp::FormatViolation &V : R.FormatViolations)
    OS << "format " << V.Loc.str() << " [" << V.Format << "] " << V.Supplied
       << "/" << V.Consumed << "\n";
  for (const interp::CheckFailure &F : R.AuditFailures)
    OS << "audit " << F.Loc.str() << " '" << F.Qual << "' " << F.ValueStr
       << "\n";
  OS << "steps=" << R.Steps << " audits=" << R.AuditChecks;
  if (WithCheckCount)
    OS << " checks=" << R.ChecksExecuted;
  return OS.str();
}

/// Front end + checker + all three engine configurations (interpreter,
/// VM without elision, VM with elision), asserting the identity contract
/// between them. Returns the interpreter result for further assertions.
struct EngineRuns {
  RunResult Interp;
  RunResult Vm;
  RunResult VmElided;
  vm::ElisionStats Elision;
  unsigned QualErrors = 0;
};

EngineRuns runAllEngines(const std::string &Source,
                         const std::vector<std::string> &QualNames,
                         interp::InterpOptions Options = {},
                         const std::string &ExtraDsl = "") {
  EngineRuns Out;
  qual::QualifierSet Quals = loadQuals(QualNames, ExtraDsl);
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  checker::CheckResult Check =
      checker::checkSource(Source, Quals, Diags, Prog);
  EXPECT_FALSE(Diags.hasErrors()) << [&] {
    std::string S;
    for (const auto &D : Diags.diagnostics())
      S += D.str() + "\n";
    return S;
  }();
  if (!Prog || Diags.hasErrors())
    return Out;
  Out.QualErrors = Check.QualErrors;

  Out.Interp = interp::runProgram(*Prog, Quals, Check.RuntimeChecks, Options);

  vm::VmOptions VO;
  VO.Interp = Options;
  VO.ElideChecks = false;
  Out.Vm = vm::runProgram(*Prog, Quals, Check.RuntimeChecks, VO);

  VO.ElideChecks = true;
  VO.ProgramCheckedClean = Check.QualErrors == 0;
  auto CP = vm::compileProgram(*Prog, Quals, Check.RuntimeChecks, VO);
  Out.Elision = CP->Elision;
  Out.VmElided = vm::execute(*CP, Options);

  // The identity contract.
  EXPECT_EQ(dump(Out.Interp), dump(Out.Vm)) << "source:\n" << Source;
  EXPECT_EQ(dump(Out.Vm, false), dump(Out.VmElided, false))
      << "elision changed observable behavior; source:\n" << Source;
  return Out;
}

//===----------------------------------------------------------------------===//
// Execution agreement across program shapes
//===----------------------------------------------------------------------===//

TEST(VmExec, ProgramShapesMatchInterpreter) {
  const char *Programs[] = {
      "int main() { return 42; }",
      "int main() { return (2 + 3) * 4 - 20 / 5; }",
      "int main() { int x = 5; int y; y = x * 2; return y; }",
      "int g = 7;\n"
      "int bump(int d) { g = g + d; return g; }\n"
      "int main() { bump(3); bump(5); return g; }",
      "int main() {\n"
      "  int s = 0;\n"
      "  int i;\n"
      "  for (i = 1; i <= 10; i = i + 1) { if (i % 2 == 0) s = s + i; }\n"
      "  return s;\n"
      "}",
      "int main() {\n"
      "  int s = 0; int i = 0;\n"
      "  while (1) { i = i + 1; if (i > 6) break;\n"
      "              if (i == 3) continue; s = s + i; }\n"
      "  return s;\n"
      "}",
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
      "int main() { return fib(12); }",
      "struct Pt { int x; int y; };\n"
      "int main() { struct Pt p; p.x = 3; p.y = 4;\n"
      "             return p.x * p.x + p.y * p.y; }",
      "struct Pt { int x; int y; };\n"
      "int main() { struct Pt* p = malloc(sizeof(struct Pt));\n"
      "             p->x = 5; p->y = 6; int r = p->x + p->y; free(p);\n"
      "             return r; }",
      "int main() { int* a = malloc(4 * sizeof(int)); int i;\n"
      "             for (i = 0; i < 4; i = i + 1) a[i] = i * i;\n"
      "             return a[3]; }",
      "int main() { int x = 9; int* p = &x; *p = *p + 1; return x; }",
      "int main() { char* s = \"hey\"; return s[0] + s[2]; }",
      "int main() { printf(\"n=%d s=%s\\n\", 12, \"ok\"); return 0; }",
      "int main() { int x = 0; if (x != 0 && 10 / x > 1) return 1;\n"
      "             return 2; }",
      "int a = 2;\nint b = a * 3;\nint main() { return b; }",
  };
  for (const char *Source : Programs) {
    EngineRuns R = runAllEngines(Source, {"pos", "neg", "nonneg", "nonzero",
                                          "nonnull"});
    EXPECT_TRUE(R.Interp.ok()) << Source << "\n" << R.Interp.TrapMessage;
  }
}

TEST(VmExec, PrintfFormatViolationBytesMatch) {
  EngineRuns R = runAllEngines(
      "int main() { int secret = 99;\n"
      "             printf(\"%d %d\", 1); return 0; }",
      {});
  EXPECT_EQ(R.Interp.Status, RunStatus::Ok);
  ASSERT_EQ(R.Interp.FormatViolations.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Trap taxonomy: identical status AND identical diagnostic bytes
//===----------------------------------------------------------------------===//

struct TrapCase {
  const char *Source;
  const char *Message;
};

TEST(VmTrap, TaxonomyMatchesInterpreterByteForByte) {
  const TrapCase Cases[] = {
      {"int main() { int* p = NULL; return *p; }",
       "1:36: null pointer dereference"},
      {"int main() { int* a = malloc(2 * sizeof(int)); return a[5]; }",
       "1:56: out-of-bounds read at offset 5"},
      {"int main() { int* p = malloc(sizeof(int)); *p = 1; free(p);\n"
       "             return *p; }",
       "2:21: read from freed memory"},
      {"int z = 0;\nint main() { return 10 / z; }",
       "2:24: division by zero"},
      {"int z = 0;\nint main() { return 10 % z; }",
       "2:24: division by zero"},
      // INT64_MIN / -1 and % -1 overflow: a trap, never a host SIGFPE.
      {"int main() { int x = -9223372036854775807 - 1; return x / -1; }",
       "1:57: division overflow"},
      {"int main() { int x = -9223372036854775807 - 1; return x % -1; }",
       "1:57: division overflow"},
  };
  for (const TrapCase &T : Cases) {
    EngineRuns R = runAllEngines(T.Source, {});
    EXPECT_EQ(R.Interp.Status, RunStatus::Trap) << T.Source;
    EXPECT_EQ(R.Interp.TrapMessage, T.Message) << T.Source;
    // dump() equality in runAllEngines already pinned vm == interp; this
    // re-states the two fields the taxonomy is about.
    EXPECT_EQ(R.Vm.Status, R.Interp.Status);
    EXPECT_EQ(R.Vm.TrapMessage, R.Interp.TrapMessage);
  }
}

TEST(VmTrap, MissingEntryPointIsSetupError) {
  EngineRuns R = runAllEngines("int helper() { return 1; }", {});
  EXPECT_EQ(R.Interp.Status, RunStatus::SetupError);
  EXPECT_EQ(R.Vm.Status, RunStatus::SetupError);
  EXPECT_EQ(R.Vm.TrapMessage, R.Interp.TrapMessage);
}

//===----------------------------------------------------------------------===//
// Engine-independent fuel semantics
//===----------------------------------------------------------------------===//

TEST(VmFuel, ExhaustionAgreesAtEveryBudget) {
  // Loops, calls, branches, and a mid-loop trap candidate: every spend
  // point the interpreter charges must map onto the bytecode stream.
  const char *Source =
      "int work(int n) {\n"
      "  int s = 0; int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (i % 3 == 0) s = s + i; else s = s - 1;\n"
      "  }\n"
      "  return s;\n"
      "}\n"
      "int main() {\n"
      "  int t = 0; int k = 0;\n"
      "  while (k < 5) { t = t + work(k); k = k + 1; }\n"
      "  return t;\n"
      "}";
  // Unbounded run to learn the true cost, engine-agreement included.
  EngineRuns Full = runAllEngines(Source, {});
  ASSERT_TRUE(Full.Interp.ok());
  uint64_t Total = Full.Interp.Steps;
  ASSERT_GT(Total, 50u);
  // Sweep the budget through every prefix: FuelExhausted must fire after
  // exactly the same step count on both engines, at every boundary.
  for (uint64_t Fuel = 1; Fuel <= Total + 2; ++Fuel) {
    interp::InterpOptions O;
    O.Fuel = Fuel;
    EngineRuns R = runAllEngines(Source, {}, O);
    EXPECT_EQ(R.Interp.Status,
              Fuel < Total ? RunStatus::FuelExhausted : RunStatus::Ok)
        << "fuel=" << Fuel;
    EXPECT_EQ(R.Vm.Status, R.Interp.Status) << "fuel=" << Fuel;
    EXPECT_EQ(R.Vm.Steps, R.Interp.Steps) << "fuel=" << Fuel;
  }
}

TEST(VmFuel, InfiniteLoopExhaustsBothEngines) {
  interp::InterpOptions O;
  O.Fuel = 5000;
  EngineRuns R = runAllEngines("int main() { while (1) {} return 0; }", {}, O);
  EXPECT_EQ(R.Interp.Status, RunStatus::FuelExhausted);
  EXPECT_EQ(R.Vm.Status, RunStatus::FuelExhausted);
  EXPECT_EQ(R.Vm.Steps, R.Interp.Steps);
}

//===----------------------------------------------------------------------===//
// Run-time qualifier checks and audits
//===----------------------------------------------------------------------===//

TEST(VmChecks, FailingCastReportsIdenticalFailure) {
  EngineRuns R = runAllEngines(
      "int main() { int x = 0 - 5; int y; y = (int pos) x; return y; }",
      {"pos", "neg"});
  EXPECT_EQ(R.Interp.Status, RunStatus::CheckFailure);
  ASSERT_EQ(R.Interp.CheckFailures.size(), 1u);
  EXPECT_EQ(R.Interp.CheckFailures[0].Qual, "pos");
  EXPECT_EQ(R.Interp.CheckFailures[0].ValueStr, "-5");
  EXPECT_EQ(R.Vm.Status, RunStatus::CheckFailure);
}

TEST(VmChecks, PassingCastCountsChecksIdentically) {
  EngineRuns R = runAllEngines(
      "int nonneg dec(int nonneg b, int pos a) {\n"
      "  if (a > b) return b;\n"
      "  return (int nonneg) (b - a);\n"
      "}\n"
      "int main() { int r = dec(10, 3); return dec(r, 2); }",
      {"pos", "neg", "nonneg"});
  EXPECT_TRUE(R.Interp.ok());
  EXPECT_EQ(R.Interp.ChecksExecuted, 2u);
  EXPECT_EQ(R.Vm.ChecksExecuted, 2u);
}

TEST(VmAudit, AuditedStoresCountIdentically) {
  interp::InterpOptions O;
  O.AuditQualifiedStores = true;
  EngineRuns R = runAllEngines(
      "int nonneg balance = 100;\n"
      "void deposit(int pos amount) { balance = balance + amount; }\n"
      "int main() { deposit(30); deposit(12); return balance; }",
      {"pos", "neg", "nonneg"}, O);
  EXPECT_TRUE(R.Interp.ok());
  EXPECT_GT(R.Interp.AuditChecks, 0u);
  EXPECT_EQ(R.Vm.AuditChecks, R.Interp.AuditChecks);
  EXPECT_EQ(R.VmElided.AuditChecks, R.Interp.AuditChecks);
}

//===----------------------------------------------------------------------===//
// Prover-driven check elision
//===----------------------------------------------------------------------===//

TEST(VmElide, NegativeOperandDischargesNonzeroGuard) {
  // nonzero has no case rule for neg expressions, so the checker emits a
  // run-time check; the prover knows value < 0 entails value != 0.
  EngineRuns R = runAllEngines(
      "int f(int neg x) { return 10 / (int nonzero) x; }\n"
      "int main() { int i = 0; int acc = 0;\n"
      "             while (i < 8) { acc = acc + f(-5); i = i + 1; }\n"
      "             return acc + 40; }",
      {"pos", "neg", "nonneg", "nonzero"});
  EXPECT_EQ(R.QualErrors, 0u);
  EXPECT_TRUE(R.Interp.ok());
  EXPECT_EQ(R.Elision.GuardQuals, 1u);
  EXPECT_EQ(R.Elision.Elided, 1u);
  EXPECT_EQ(R.Elision.residual(), 0u);
  EXPECT_GT(R.Elision.ProverQueries, 0u);
  // Without elision both engines execute the check every iteration; with
  // it, never — while output/exit/steps stay identical (asserted in
  // runAllEngines).
  EXPECT_EQ(R.Interp.ChecksExecuted, 8u);
  EXPECT_EQ(R.Vm.ChecksExecuted, 8u);
  EXPECT_EQ(R.VmElided.ChecksExecuted, 0u);
}

TEST(VmElide, UnprovableGuardStaysResidualAndStillFires) {
  // balance - amount can be negative for all the prover knows: the guard
  // must stay, and it must still fail at run time when violated.
  EngineRuns R = runAllEngines(
      "int nonneg balance = 10;\n"
      "int main() { balance = (int nonneg) (balance - 25); return 0; }",
      {"pos", "neg", "nonneg"});
  EXPECT_EQ(R.Elision.Elided, 0u);
  EXPECT_EQ(R.Elision.residual(), 1u);
  EXPECT_EQ(R.Interp.Status, RunStatus::CheckFailure);
  EXPECT_EQ(R.VmElided.Status, RunStatus::CheckFailure);
  ASSERT_EQ(R.VmElided.CheckFailures.size(), 1u);
  EXPECT_EQ(R.VmElided.CheckFailures[0].ValueStr, "-15");
}

TEST(VmElide, ConcreteConstantOperandDischargesWithoutProver) {
  // A DSL qualifier with no case rules: the checker cannot derive it for
  // any expression, but a literal operand lets the compiler evaluate the
  // invariant outright. No soundness or checked-clean gate needed.
  EngineRuns R = runAllEngines(
      "int main() { int x; x = (int low) 5; return x; }", {},
      {},
      "value qualifier low(int Expr E)\n"
      "  invariant value(E) < 100\n");
  EXPECT_EQ(R.Elision.GuardQuals, 1u);
  EXPECT_EQ(R.Elision.ConcreteElided, 1u);
  EXPECT_EQ(R.Elision.ProverQueries, 0u);
  EXPECT_EQ(R.Vm.ChecksExecuted, 1u);
  EXPECT_EQ(R.VmElided.ChecksExecuted, 0u);
}

TEST(VmElide, ConcreteConstantViolationKeepsGuard) {
  EngineRuns R = runAllEngines(
      "int main() { int x; x = (int low) 500; return x; }", {},
      {},
      "value qualifier low(int Expr E)\n"
      "  invariant value(E) < 100\n");
  EXPECT_EQ(R.Elision.Elided, 0u);
  EXPECT_EQ(R.Interp.Status, RunStatus::CheckFailure);
  EXPECT_EQ(R.VmElided.Status, RunStatus::CheckFailure);
}

TEST(VmElide, RejectedProgramNeverTrustsStaticTypes) {
  // Same neg -> nonzero shape, but the program carries a qualifier error
  // elsewhere: ProgramCheckedClean is false, Theorem 5.1 gives nothing,
  // and the guard must stay.
  EngineRuns R = runAllEngines(
      "int f(int neg x) { return 10 / (int nonzero) x; }\n"
      "int g(int pos y) { return y; }\n"
      "int main() { int i = 0; g(i); return f(-5) + 2; }",
      {"pos", "neg", "nonneg", "nonzero"});
  EXPECT_GT(R.QualErrors, 0u);
  EXPECT_EQ(R.Elision.Elided, 0u);
  EXPECT_EQ(R.VmElided.ChecksExecuted, R.Vm.ChecksExecuted);
}

//===----------------------------------------------------------------------===//
// Compiled-program reuse
//===----------------------------------------------------------------------===//

TEST(VmExec, CompiledProgramIsReExecutable) {
  qual::QualifierSet Quals = loadQuals({"pos", "neg"});
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  checker::CheckResult Check = checker::checkSource(
      "int g = 0;\nint main() { g = g + 1; return g; }", Quals, Diags, Prog);
  ASSERT_TRUE(Prog && !Diags.hasErrors());
  auto CP = vm::compileProgram(*Prog, Quals, Check.RuntimeChecks, {});
  // Each execution starts from fresh machine state: globals re-init.
  for (int I = 0; I < 3; ++I) {
    RunResult R = vm::execute(*CP, {});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ExitValue, 1);
  }
}

} // namespace
