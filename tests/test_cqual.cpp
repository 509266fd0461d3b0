//===- test_cqual.cpp - Tests for the CQUAL-style inference baseline ------===//

#include "cqual/Cqual.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::cqual;

namespace {

const std::vector<std::string> Quals = {"tainted", "untainted"};

struct Run {
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  InferenceResult Result;
};

std::unique_ptr<Run> infer(const std::string &Source) {
  auto R = std::make_unique<Run>();
  R->Prog = cminus::parseProgram(Source, Quals, R->Diags);
  EXPECT_FALSE(R->Diags.hasErrors());
  EXPECT_TRUE(cminus::runSema(*R->Prog, {}, R->Diags));
  EXPECT_TRUE(cminus::lowerProgram(*R->Prog, R->Diags));
  R->Result = runInference(*R->Prog);
  return R;
}

TEST(Cqual, CleanProgramHasNoErrors) {
  auto R = infer("int main() { int x = 1; int y = x + 2; return y; }");
  EXPECT_TRUE(R->Result.clean());
  EXPECT_GT(R->Result.NumVars, 0u);
}

TEST(Cqual, DirectTaintedToUntaintedFlows) {
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  char* s = source();\n"
                 "  sink(s);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, InferencePropagatesThroughIntermediates) {
  // The key CQUAL advantage: the intermediate variables a, b, c need no
  // annotations; taint is inferred through them.
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  char* a = source();\n"
                 "  char* b = a;\n"
                 "  char* c = b;\n"
                 "  sink(c);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
  EXPECT_EQ(R->Result.ExplicitAnnotations, 2u); // Only source and sink.
}

TEST(Cqual, UntaintedDataReachingSinkIsFine) {
  auto R = infer("void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  char* a = \"safe\";\n"
                 "  sink(a);\n"
                 "}\n");
  EXPECT_TRUE(R->Result.clean());
}

TEST(Cqual, FlowThroughFunctionReturns) {
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "char* pass(char* x) { return x; }\n"
                 "void main2() {\n"
                 "  char* t = source();\n"
                 "  char* u = pass(t);\n"
                 "  sink(u);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, FlowThroughStructFields) {
  auto R = infer("struct msg { char* body; };\n"
                 "char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  struct msg m;\n"
                 "  m.body = source();\n"
                 "  sink(m.body);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, FlowThroughPointerCells) {
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  char** cell = (char**) malloc(sizeof(char*));\n"
                 "  *cell = source();\n"
                 "  sink(*cell);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, BranchesJoin) {
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2(int c) {\n"
                 "  char* x = \"ok\";\n"
                 "  if (c) x = source();\n"
                 "  sink(x);\n"
                 "}\n");
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, CastAsAssumptionSilencesFlow) {
  // The CQUAL escape hatch: a cast to untainted acts as a trusted
  // assumption; the flow is reported at the cast's own constraint only if
  // taint reaches it. Casting the *result* of an untrusted source is
  // still caught because the cast position itself is Bottom-bounded.
  auto R = infer("char* tainted source();\n"
                 "void sink(char* untainted fmt);\n"
                 "void main2() {\n"
                 "  char* t = source();\n"
                 "  char* untainted u = (char* untainted) t;\n"
                 "  sink(u);\n"
                 "}\n");
  // The cast's Bottom bound sees tainted data: one error at the cast.
  EXPECT_EQ(R->Result.Errors.size(), 1u);
}

TEST(Cqual, NoSoundnessChecking) {
  // The contrast with the paper: swapping the lattice poles (declaring
  // that untainted data must never flow to tainted positions - a
  // meaningless discipline) is accepted without complaint. CQUAL trusts
  // the user's lattice; the real format-string bug below goes unreported.
  // The paper's soundness checker would reject a rule set whose invariant
  // its rules do not establish.
  LatticeConfig Swapped;
  Swapped.Top = "untainted";
  Swapped.Bottom = "tainted";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram("char* tainted source();\n"
                                   "void sink(char* untainted fmt);\n"
                                   "void main2() { sink(source()); }\n",
                                   Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_TRUE(cminus::runSema(*Prog, {}, Diags));
  ASSERT_TRUE(cminus::lowerProgram(*Prog, Diags));
  InferenceResult R = runInference(*Prog, Swapped);
  EXPECT_TRUE(R.clean()); // The bug is silently missed.

  // The correctly configured analysis catches it.
  InferenceResult Correct = runInference(*Prog);
  EXPECT_EQ(Correct.Errors.size(), 1u);
}

TEST(Cqual, AnnotationCountsReported) {
  auto R = infer("char* tainted a();\n"
                 "char* tainted b();\n"
                 "void sink(char* untainted fmt);\n");
  EXPECT_EQ(R->Result.ExplicitAnnotations, 3u);
}

TEST(Cqual, IntegerTaintVerdicts) {
  // Constants carry no taint; taint reaches an untainted local directly
  // and through an unannotated identity function; untainted-annotated
  // returns accept clean arguments.
  struct Case {
    const char *Source;
    bool Clean;
  };
  const Case Cases[] = {
      {"int f(int tainted t) { int untainted u = 3; return t + u; }\n", true},
      {"int f(int tainted t) { int untainted u = t; return u; }\n", false},
      {"int id(int v) { return v; }\n"
       "int f(int tainted t) { int untainted u = id(t); return u; }\n",
       false},
      {"int untainted sink(int untainted v) { return v; }\n"
       "int f() { int x = 4; return sink(x); }\n",
       true},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(infer(C.Source)->Result.clean(), C.Clean) << C.Source;
}

} // namespace
