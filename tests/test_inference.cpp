//===- test_inference.cpp - Tests for qualifier inference -----------------===//
//
// The section 8 future-work extension: inferring value-qualifier
// annotations as the greatest fixpoint consistent with every flow into
// each variable.
//
//===----------------------------------------------------------------------===//

#include "checker/ConstraintInference.h"
#include "checker/Inference.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "qual/Builtins.h"
#include "server/Exec.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;

namespace {

struct Setup {
  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog;
  InferenceOutcome Outcome;
};

std::unique_ptr<Setup> infer(const std::vector<std::string> &QualNames,
                             const std::string &Source,
                             InferenceOptions Options = {}) {
  auto S = std::make_unique<Setup>();
  EXPECT_TRUE(qual::loadBuiltinQualifiers(QualNames, S->Quals, S->Diags));
  S->Prog = parseProgram(Source, S->Quals.names(), S->Diags);
  EXPECT_FALSE(S->Diags.hasErrors());
  EXPECT_TRUE(runSema(*S->Prog, S->Quals.refNames(), S->Diags));
  EXPECT_TRUE(lowerProgram(*S->Prog, S->Diags));
  S->Outcome = inferQualifiers(*S->Prog, S->Quals, Options);
  return S;
}

const VarDecl *findVar(const Program &Prog, const std::string &Name) {
  // Globals.
  for (const VarDecl *G : Prog.Globals)
    if (G->Name == Name)
      return G;
  // Walk function bodies and parameters.
  const VarDecl *Found = nullptr;
  std::function<void(const Stmt *)> Walk = [&](const Stmt *S) {
    if (!S || Found)
      return;
    if (const auto *Block = dyn_cast<BlockStmt>(S)) {
      for (const Stmt *Sub : Block->Stmts)
        Walk(Sub);
    } else if (const auto *Decl = dyn_cast<DeclStmt>(S)) {
      if (Decl->Var->Name == Name)
        Found = Decl->Var;
    } else if (const auto *If = dyn_cast<IfStmt>(S)) {
      Walk(If->Then);
      Walk(If->Else);
    } else if (const auto *While = dyn_cast<WhileStmt>(S)) {
      Walk(While->Body);
    } else if (const auto *For = dyn_cast<ForStmt>(S)) {
      Walk(For->Init);
      Walk(For->Step);
      Walk(For->Body);
    }
  };
  for (const FuncDecl *Fn : Prog.Functions) {
    for (const VarDecl *P : Fn->Params)
      if (P->Name == Name)
        return P;
    if (Fn->isDefinition())
      Walk(Fn->Body);
    if (Found)
      return Found;
  }
  return nullptr;
}

bool inferred(const Setup &S, const std::string &Var,
              const std::string &Qual) {
  const VarDecl *V = findVar(*S.Prog, Var);
  if (!V)
    return false;
  auto Found = S.Outcome.Inferred.find(V);
  return Found != S.Outcome.Inferred.end() && Found->second.count(Qual);
}

TEST(Inference, ConstantInitializerGivesPos) {
  auto S = infer({"pos", "neg", "nonneg", "nonzero"},
                 "int f() { int x = 3; return x; }");
  EXPECT_TRUE(inferred(*S, "x", "pos"));
  EXPECT_TRUE(inferred(*S, "x", "nonzero"));
  EXPECT_TRUE(inferred(*S, "x", "nonneg"));
  EXPECT_FALSE(inferred(*S, "x", "neg"));
}

TEST(Inference, PropagatesThroughChains) {
  auto S = infer({"pos", "neg"},
                 "int f() {\n"
                 "  int a = 5;\n"
                 "  int b = a;\n"
                 "  int c = b * a;\n"
                 "  return c;\n"
                 "}");
  EXPECT_TRUE(inferred(*S, "a", "pos"));
  EXPECT_TRUE(inferred(*S, "b", "pos"));
  EXPECT_TRUE(inferred(*S, "c", "pos"));
}

TEST(Inference, CyclesKeepQualifiers) {
  // The greatest fixpoint keeps pos on a mutually-dependent pair seeded
  // with a positive constant.
  auto S = infer({"pos", "neg"},
                 "int f(int k) {\n"
                 "  int x = 3;\n"
                 "  int y = x;\n"
                 "  x = y;\n"
                 "  y = x;\n"
                 "  return x + y;\n"
                 "}");
  EXPECT_TRUE(inferred(*S, "x", "pos"));
  EXPECT_TRUE(inferred(*S, "y", "pos"));
}

TEST(Inference, NegativeAssignmentRemoves) {
  auto S = infer({"pos", "neg", "nonzero"},
                 "int f(int c) {\n"
                 "  int x = 3;\n"
                 "  if (c) x = -1;\n"
                 "  return x;\n"
                 "}");
  EXPECT_FALSE(inferred(*S, "x", "pos"));
  EXPECT_FALSE(inferred(*S, "x", "neg"));
  EXPECT_TRUE(inferred(*S, "x", "nonzero")); // Both 3 and -1 are nonzero.
}

TEST(Inference, ParametersInferredFromCallSites) {
  auto S = infer({"pos", "neg"},
                 "int g(int v) { return v; }\n"
                 "int f() { return g(4) + g(9); }");
  EXPECT_TRUE(inferred(*S, "v", "pos"));

  auto S2 = infer({"pos", "neg"},
                  "int g(int v) { return v; }\n"
                  "int f() { return g(4) + g(0); }");
  EXPECT_FALSE(inferred(*S2, "v", "pos"));
}

TEST(Inference, NonnullForAddressTakenLocals) {
  auto S = infer({"nonnull"},
                 "int f() {\n"
                 "  int x = 1;\n"
                 "  int* p = &x;\n"
                 "  return *p;\n"
                 "}");
  EXPECT_TRUE(inferred(*S, "p", "nonnull"));
}

TEST(Inference, NullableStaysUnannotated) {
  auto S = infer({"nonnull"},
                 "int f(int c) {\n"
                 "  int x = 1;\n"
                 "  int* p = &x;\n"
                 "  if (c) p = NULL;\n"
                 "  return 0;\n"
                 "}");
  EXPECT_FALSE(inferred(*S, "p", "nonnull"));
}

TEST(Inference, DeclaredQualifiersNotReReported) {
  auto S = infer({"pos", "neg"}, "int f() { int pos x = 3; return x; }");
  EXPECT_FALSE(inferred(*S, "x", "pos"));
}

TEST(Inference, VariablesWithoutFlowsSkipped) {
  auto S = infer({"pos", "neg"}, "int f(int unused) { return 1; }");
  EXPECT_FALSE(inferred(*S, "unused", "pos"));
}

TEST(Inference, LocalsOnlySkipsGlobals) {
  InferenceOptions Options;
  Options.LocalsOnly = true;
  auto S = infer({"pos", "neg"}, "int g = 5;\nint f() { return g; }",
                 Options);
  EXPECT_FALSE(inferred(*S, "g", "pos"));
  auto S2 = infer({"pos", "neg"}, "int g = 5;\nint f() { return g; }");
  EXPECT_TRUE(inferred(*S2, "g", "pos"));
}

TEST(Inference, ApplyInferenceMakesCheckerAcceptMore) {
  // Without annotations the dereference errors; inference discovers the
  // nonnull annotation and the checker then accepts.
  const char *Source = "int deref(int* nonnull q) { return *q; }\n"
                       "int f() {\n"
                       "  int x = 1;\n"
                       "  int* p = &x;\n"
                       "  return deref(p);\n"
                       "}\n";
  auto S = infer({"nonnull"}, Source);
  EXPECT_TRUE(inferred(*S, "p", "nonnull"));

  applyReport(*S->Prog, inferWithConstraints(*S->Prog, S->Quals, {}));
  DiagnosticEngine D2;
  ASSERT_TRUE(runSema(*S->Prog, S->Quals.refNames(), D2));
  QualChecker Checker(*S->Prog, S->Quals, D2, {});
  auto Result = Checker.run();
  EXPECT_EQ(Result.QualErrors, 0u);
}

TEST(Inference, InferenceIsValidatedByChecker) {
  // Applying whatever inference finds never introduces new qualifier
  // errors (inference only claims what the checker can derive).
  const char *Source = "int h(int pos a);\n"
                       "int f(int c) {\n"
                       "  int x = 2;\n"
                       "  int y = x * 3;\n"
                       "  int z = y - x;\n"
                       "  if (c) z = -z;\n"
                       "  return h(y) + z;\n"
                       "}\n";
  auto S = infer({"pos", "neg", "nonneg", "nonzero"}, Source);
  DiagnosticEngine Before;
  {
    QualChecker Checker(*S->Prog, S->Quals, Before, {});
    Checker.run();
  }
  applyReport(*S->Prog, inferWithConstraints(*S->Prog, S->Quals, {}));
  DiagnosticEngine After;
  ASSERT_TRUE(runSema(*S->Prog, S->Quals.refNames(), After));
  QualChecker Checker(*S->Prog, S->Quals, After, {});
  auto Result = Checker.run();
  EXPECT_LE(Result.QualErrors, Before.countInPhase("qualcheck"));
}

TEST(Inference, ConvergesQuickly) {
  auto S = infer({"pos", "neg", "nonneg", "nonzero"},
                 "int f() {\n"
                 "  int a = 1; int b = a; int c = b; int d = c;\n"
                 "  a = d;\n"
                 "  return a;\n"
                 "}");
  EXPECT_LE(S->Outcome.Iterations, 6u);
  EXPECT_TRUE(inferred(*S, "d", "pos"));
}

//===----------------------------------------------------------------------===//
// The sharded constraint engine (ConstraintInference.h)
//===----------------------------------------------------------------------===//

/// Front end only: parse, Sema, lower — for tests that run the constraint
/// engine themselves.
struct Front {
  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog;
};

std::unique_ptr<Front> frontEnd(const std::vector<std::string> &QualNames,
                                const std::string &Source) {
  auto F = std::make_unique<Front>();
  EXPECT_TRUE(qual::loadBuiltinQualifiers(QualNames, F->Quals, F->Diags));
  F->Prog = parseProgram(Source, F->Quals.names(), F->Diags);
  EXPECT_FALSE(F->Diags.hasErrors());
  EXPECT_TRUE(runSema(*F->Prog, F->Quals.refNames(), F->Diags));
  EXPECT_TRUE(lowerProgram(*F->Prog, F->Diags));
  return F;
}

/// A report's full inferred set (minimal plus demoted) by declaration, in
/// the shape of the reference engine's InferenceOutcome::Inferred.
std::map<const VarDecl *, std::set<std::string>>
fullSet(const InferenceReport &R) {
  std::map<const VarDecl *, std::set<std::string>> Full;
  for (const InferenceSuggestion &S : R.Suggestions)
    for (const SuggestedQual &Q : S.Quals)
      Full[S.Decl].insert(Q.Qual);
  return Full;
}

/// Re-runs Sema and the checker over \p F's program (after applyReport)
/// and returns the qualifier error count.
unsigned recheckErrors(Front &F) {
  DiagnosticEngine D;
  EXPECT_TRUE(runSema(*F.Prog, F.Quals.refNames(), D));
  QualChecker Checker(*F.Prog, F.Quals, D, {});
  return Checker.run().QualErrors;
}

/// Every (unit, function, var, loc, qualifier) pair in a report — the full
/// inferred set when \p MinimalOnly is false, the suggestion set otherwise.
std::set<std::string> pairKeys(const InferenceReport &R,
                               bool MinimalOnly = false) {
  std::set<std::string> Keys;
  for (const InferenceSuggestion &S : R.Suggestions)
    for (const SuggestedQual &Q : S.Quals) {
      if (MinimalOnly && Q.Implied)
        continue;
      Keys.insert(std::to_string(S.Unit) + ":" + S.Function + ":" + S.Var +
                  ":" + S.Loc.str() + ":" + Q.Qual);
    }
  return Keys;
}

const InferenceSuggestion *findSuggestion(const InferenceReport &R,
                                          const std::string &Var) {
  for (const InferenceSuggestion &S : R.Suggestions)
    if (S.Var == Var)
      return &S;
  return nullptr;
}

TEST(ConstraintInference, FullSetMatchesFixpointReference) {
  // Both engines compute the same greatest fixpoint; the constraint
  // engine's minimization only re-labels pairs, never removes them.
  const char *Source = "int g = 7;\n"
                       "int scale(int v) { return v * 2; }\n"
                       "int f(int c) {\n"
                       "  int x = 3;\n"
                       "  int y = x;\n"
                       "  x = y;\n"
                       "  int z = scale(x) + scale(g);\n"
                       "  if (c) z = -1;\n"
                       "  return z;\n"
                       "}\n";
  auto F = frontEnd({"pos", "neg", "nonneg", "nonzero"}, Source);
  InferenceReport Cons =
      inferWithConstraints(*F->Prog, F->Quals, ConstraintInferenceOptions{});
  InferenceOutcome Fix = inferQualifiers(*F->Prog, F->Quals);
  EXPECT_EQ(fullSet(Cons), Fix.Inferred);
  EXPECT_GT(Cons.totalInferred(), 0u);
  EXPECT_EQ(Cons.totalInferred(), Fix.totalInferred());
}

TEST(ConstraintInference, FullSetMatchesFixpointOnWorkloadFarm) {
  workloads::GeneratedWorkload Farm = workloads::makeInferenceFarm(8);
  auto F = frontEnd({"pos", "neg", "nonneg", "nonzero"}, Farm.Source);
  ConstraintInferenceOptions Options;
  Options.Jobs = 4;
  InferenceReport Cons = inferWithConstraints(*F->Prog, F->Quals, Options);
  EXPECT_EQ(fullSet(Cons), inferQualifiers(*F->Prog, F->Quals).Inferred);
  EXPECT_GT(Cons.Stats.Constraints, 0u);
}

TEST(ConstraintInference, ReverseChainReachesTheFixpoint) {
  // x1 = x2; ... x69 = x70; x70 = -1; lets a forward sweep drop only one
  // variable's pos/nonneg at a time, so the fixpoint is 70 sweeps (and 70
  // Jacobi rounds) away — past any small sweep cap.
  std::string Source = "int f() {\n";
  for (int I = 1; I <= 70; ++I)
    Source += "  int x" + std::to_string(I) + " = 1;\n";
  for (int I = 1; I < 70; ++I)
    Source += "  x" + std::to_string(I) + " = x" + std::to_string(I + 1) +
              ";\n";
  Source += "  x70 = -1;\n  return x1;\n}\n";
  auto F = frontEnd({"pos", "neg", "nonneg", "nonzero"}, Source);
  InferenceReport R =
      inferWithConstraints(*F->Prog, F->Quals, ConstraintInferenceOptions{});
  InferenceOutcome Fix = inferQualifiers(*F->Prog, F->Quals);
  EXPECT_EQ(fullSet(R), Fix.Inferred);
  EXPECT_EQ(R.Stats.SolveRounds, 70u);
  EXPECT_EQ(R.totalSuggested(), 70u); // nonzero on every xN
  applyReport(*F->Prog, R);
  EXPECT_EQ(recheckErrors(*F), 0u);
}

TEST(ConstraintInference, MinimizationDemotesProverImpliedQualifiers) {
  // x = 3 infers pos, nonneg, and nonzero; nonneg and nonzero both carry
  // a `E1, where pos(E1)` derivation clause and their invariants follow
  // from value > 0, so the minimal suggestion is pos alone.
  auto F = frontEnd({"pos", "neg", "nonneg", "nonzero"},
                    "int f() { int x = 3; return x; }");
  InferenceReport R =
      inferWithConstraints(*F->Prog, F->Quals, ConstraintInferenceOptions{});
  const InferenceSuggestion *S = findSuggestion(R, "x");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Quals.size(), 3u); // sorted: nonneg, nonzero, pos
  EXPECT_EQ(S->Quals[0].Qual, "nonneg");
  EXPECT_TRUE(S->Quals[0].Implied);
  EXPECT_EQ(S->Quals[0].Provenance, "implied:pos");
  EXPECT_EQ(S->Quals[1].Qual, "nonzero");
  EXPECT_TRUE(S->Quals[1].Implied);
  EXPECT_EQ(S->Quals[1].Provenance, "implied:pos");
  EXPECT_EQ(S->Quals[2].Qual, "pos");
  EXPECT_FALSE(S->Quals[2].Implied);
  EXPECT_EQ(S->Quals[2].Provenance, "solver");
  EXPECT_EQ(R.Stats.Suggested, 1u);
  EXPECT_EQ(R.Stats.Implied, 2u);
  EXPECT_GT(R.Stats.ProverQueries, 0u);

  // Demotion only re-labels: the full set keeps all three pairs.
  EXPECT_EQ(R.totalInferred(), 3u);
  std::set<std::string> Full = pairKeys(R);
  EXPECT_EQ(Full.size(), 3u);
  EXPECT_EQ(pairKeys(R, /*MinimalOnly=*/true).size(), 1u);
  for (const char *Q : {"nonneg", "nonzero", "pos"})
    EXPECT_EQ(Full.count("1:f:x:" + S->Loc.str() + ":" + Q), 1u) << Q;
}

TEST(ConstraintInference, AddressTakenVariablesAreNotSuggested) {
  // Regression (found by the inference fuzz oracle): qualifiers are
  // invariant below pointers, so inferring pos on an address-taken `a`
  // would retype every `&a` and break re-checking.
  const char *Source = "int deref(int* nonnull q) { return *q; }\n"
                       "int f() {\n"
                       "  int a = 3;\n"
                       "  int* p = &a;\n"
                       "  return deref(p) + a;\n"
                       "}\n";
  auto F = frontEnd({"pos", "neg", "nonnull"}, Source);
  InferenceReport R =
      inferWithConstraints(*F->Prog, F->Quals, ConstraintInferenceOptions{});
  EXPECT_EQ(findSuggestion(R, "a"), nullptr);
  const InferenceSuggestion *P = findSuggestion(R, "p");
  ASSERT_NE(P, nullptr); // p itself is not address-taken
  EXPECT_EQ(P->Quals.size(), 1u);
  EXPECT_EQ(P->Quals[0].Qual, "nonnull");
}

TEST(ConstraintInference, SuggestionBudgetTruncatesReportOnly) {
  auto F = frontEnd({"pos", "neg"},
                    "int f() {\n"
                    "  int a = 1; int b = a; int c = b;\n"
                    "  return c;\n"
                    "}");
  ConstraintInferenceOptions Options;
  Options.MaxSuggestions = 1;
  InferenceReport R = inferWithConstraints(*F->Prog, F->Quals, Options);
  EXPECT_EQ(R.Suggestions.size(), 1u);
  EXPECT_EQ(R.Stats.Truncated, 2u);
  // The keeper is the deterministically smallest key.
  EXPECT_EQ(R.Suggestions[0].Var, "a");
}

TEST(ConstraintInference, LocalsOnlyScopeSkipsGlobals) {
  auto F = frontEnd({"pos", "neg"},
                    "int g = 5;\nint f() { int x = g; return x; }");
  ConstraintInferenceOptions Options;
  Options.Scope = InferenceScope::LocalsOnly;
  InferenceReport R = inferWithConstraints(*F->Prog, F->Quals, Options);
  EXPECT_EQ(findSuggestion(R, "g"), nullptr);
  // x still gets nothing here (its flow reads the unannotated global),
  // but under Program scope both are suggested.
  ConstraintInferenceOptions Program;
  InferenceReport Full = inferWithConstraints(*F->Prog, F->Quals, Program);
  ASSERT_NE(findSuggestion(Full, "g"), nullptr);
  ASSERT_NE(findSuggestion(Full, "x"), nullptr);
}

TEST(ConstraintInference, SuggestionsCarryStableKeys) {
  const char *Source = "int g = 2;\n"
                       "int f(int v) { int x = v * g; return g; }\n"
                       "int main() { return f(4); }\n";
  auto F = frontEnd({"pos", "neg"}, Source);
  InferenceReport R =
      inferWithConstraints(*F->Prog, F->Quals, ConstraintInferenceOptions{});
  const InferenceSuggestion *G = findSuggestion(R, "g");
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->Unit, 0u);
  EXPECT_EQ(G->Function, "");
  EXPECT_EQ(G->Kind, "global");
  const InferenceSuggestion *V = findSuggestion(R, "v");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Unit, 1u); // f is the first function
  EXPECT_EQ(V->Function, "f");
  EXPECT_EQ(V->Kind, "parameter");
  const InferenceSuggestion *X = findSuggestion(R, "x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->Function, "f");
  EXPECT_EQ(X->Kind, "local");
  EXPECT_GT(X->Loc.Line, 0u);
}

/// Runs `stqc infer` semantics through the shared executor.
server::ExecResult runInfer(const std::string &Source, unsigned Jobs,
                            bool Apply, bool Json = false) {
  server::Invocation Inv;
  Inv.Command = "infer";
  Inv.Source = Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = {"pos", "neg", "nonneg", "nonzero", "nonnull"};
  Inv.Session.Jobs = Jobs;
  Inv.Session.Infer.Apply = Apply;
  Inv.InferJson = Json;
  return server::executeInvocation(Inv);
}

server::ExecResult runCheck(const std::string &Source) {
  server::Invocation Inv;
  Inv.Command = "check";
  Inv.Source = Source;
  Inv.HasSource = true;
  Inv.Session.Builtins = {"pos", "neg", "nonneg", "nonzero", "nonnull"};
  return server::executeInvocation(Inv);
}

TEST(ConstraintInference, ApplyRecheckesCleanAndByteStableAcrossJobs) {
  // The PR's differential acceptance, in-process: for every program,
  // the suggestion report is byte-identical at --jobs 1 and 4, and the
  // applied annotations re-check with zero qualifier errors.
  const std::vector<std::string> Programs = {
      "int f() { int x = 3; int y = x; return y; }\n",
      "int g(int v) { return v; }\nint f() { return g(4) + g(9); }\n",
      "int deref(int* nonnull q) { return *q; }\n"
      "int f() { int a = 1; int* p = &a; return deref(p); }\n",
      workloads::makeInferenceFarm(10).Source,
  };
  for (const std::string &Source : Programs) {
    server::ExecResult R1 = runInfer(Source, 1, /*Apply=*/false);
    server::ExecResult R4 = runInfer(Source, 4, /*Apply=*/false);
    EXPECT_EQ(R1.Out, R4.Out) << Source;
    EXPECT_EQ(R1.Err, R4.Err) << Source;
    EXPECT_EQ(R1.ExitCode, R4.ExitCode) << Source;

    server::ExecResult Applied = runInfer(Source, 1, /*Apply=*/true);
    ASSERT_EQ(Applied.ExitCode, 0) << Source;
    server::ExecResult Recheck = runCheck(Applied.Out);
    EXPECT_EQ(Recheck.ExitCode, 0) << "annotated program must re-check "
                                      "clean:\n"
                                   << Applied.Out;

    // Applying is idempotent up to bytes: re-inferring the annotated
    // program has nothing new to suggest.
    server::ExecResult Again = runInfer(Applied.Out, 1, /*Apply=*/true);
    EXPECT_EQ(Again.Out, Applied.Out) << Source;
  }
}

} // namespace
