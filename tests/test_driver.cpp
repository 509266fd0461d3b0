//===- test_driver.cpp - Tests for the Session facade and option table ----===//
//
// The stq::Session driver API (qualifier loading, check/prove/run/infer,
// metric publication, JSON emission, the jobs-determinism contract) and the
// declarative cli::OptionTable parser.
//
//===----------------------------------------------------------------------===//

#include "driver/OptionTable.h"
#include "driver/Session.h"
#include "qual/Builtins.h"
#include "server/Exec.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace stq;

namespace {

// --------------------------------------------------------------------------
// OptionTable
// --------------------------------------------------------------------------

TEST(OptionTable, SplitCommas) {
  EXPECT_EQ(cli::splitCommas("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(cli::splitCommas("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(cli::splitCommas("").empty());
}

TEST(OptionTable, ParseUnsigned) {
  unsigned N = 99;
  EXPECT_TRUE(cli::parseUnsigned("0", N));
  EXPECT_EQ(N, 0u);
  EXPECT_TRUE(cli::parseUnsigned("42", N));
  EXPECT_EQ(N, 42u);
  EXPECT_FALSE(cli::parseUnsigned("", N));
  EXPECT_FALSE(cli::parseUnsigned("4a", N));
  EXPECT_FALSE(cli::parseUnsigned("abc", N));
  EXPECT_FALSE(cli::parseUnsigned("-1", N));
  EXPECT_FALSE(cli::parseUnsigned("99999999999999999999", N));
}

TEST(OptionTable, FlagAndValueSpellings) {
  bool Verbose = false;
  unsigned Jobs = 0;
  cli::OptionTable T;
  T.flag("--verbose", "-v", "", [&] { Verbose = true; });
  T.value("--jobs", "-j", "N", "", [&](const std::string &V, std::string &E) {
    if (!cli::parseUnsigned(V, Jobs)) {
      E = "bad --jobs value '" + V + "'";
      return false;
    }
    return true;
  });

  std::string Error;
  EXPECT_TRUE(T.parse({"--verbose", "--jobs", "4"}, Error)) << Error;
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(Jobs, 4u);

  Jobs = 0;
  EXPECT_TRUE(T.parse({"--jobs=8"}, Error)) << Error;
  EXPECT_EQ(Jobs, 8u);

  Jobs = 0;
  EXPECT_TRUE(T.parse({"-j", "2"}, Error)) << Error;
  EXPECT_EQ(Jobs, 2u);
}

TEST(OptionTable, UnknownOptionIsHardError) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--bogus"}, Error));
  EXPECT_EQ(Error, "unknown option '--bogus'");
  EXPECT_FALSE(T.parse({"--bogus=3"}, Error));
  EXPECT_EQ(Error, "unknown option '--bogus'");
}

TEST(OptionTable, MissingAndRejectedValues) {
  unsigned Jobs = 0;
  cli::OptionTable T;
  T.value("--jobs", "", "N", "", [&](const std::string &V, std::string &E) {
    if (!cli::parseUnsigned(V, Jobs)) {
      E = "bad --jobs value '" + V + "'";
      return false;
    }
    return true;
  });
  std::string Error;
  EXPECT_FALSE(T.parse({"--jobs"}, Error));
  EXPECT_EQ(Error, "missing value for '--jobs'");
  EXPECT_FALSE(T.parse({"--jobs", "abc"}, Error));
  EXPECT_EQ(Error, "bad --jobs value 'abc'");
}

TEST(OptionTable, FlagRejectsInlineValue) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--verbose=1"}, Error));
  EXPECT_EQ(Error, "option '--verbose' takes no value");
}

TEST(OptionTable, OptionalValueOnlyBindsInline) {
  std::vector<std::string> Formats;
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.optionalValue("--metrics", "FORMAT", "",
                  [&](const std::string &V, std::string &) {
                    Formats.push_back(V);
                    return true;
                  });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--metrics", "json", "--metrics=json"}, Error))
      << Error;
  // The separate word stays positional; only "=" binds a value.
  EXPECT_EQ(Formats, (std::vector<std::string>{"", "json"}));
  EXPECT_EQ(Positionals, (std::vector<std::string>{"json"}));
}

TEST(OptionTable, RepeatedScalarOptionIsLastWins) {
  // Handlers re-apply in order: a scalar option keeps the last value, and
  // a list option accumulates (both are how stqc's options behave).
  std::string Entry;
  std::vector<std::string> Files;
  cli::OptionTable T;
  T.value("--entry", "", "NAME", "", [&](const std::string &V, std::string &) {
    Entry = V;
    return true;
  });
  T.value("--qualfile", "", "F", "", [&](const std::string &V, std::string &) {
    Files.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--entry", "a", "--qualfile", "f1", "--entry=b",
                       "--qualfile=f2"},
                      Error))
      << Error;
  EXPECT_EQ(Entry, "b");
  EXPECT_EQ(Files, (std::vector<std::string>{"f1", "f2"}));
}

TEST(OptionTable, DoubleDashEndsOptionProcessing) {
  bool Verbose = false;
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.flag("--verbose", "", "", [&] { Verbose = true; });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  // Everything after "--" is positional, even flag-shaped arguments; the
  // separator itself is not routed anywhere.
  EXPECT_TRUE(T.parse({"--verbose", "--", "--verbose", "-x", "--"}, Error))
      << Error;
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(Positionals, (std::vector<std::string>{"--verbose", "-x", "--"}));

  // Without the separator the same arguments are hard errors.
  EXPECT_FALSE(T.parse({"-x"}, Error));
  EXPECT_EQ(Error, "unknown option '-x'");
}

TEST(OptionTable, DoubleDashWithoutPositionalHandlerIsError) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--", "file.c"}, Error));
  EXPECT_EQ(Error, "unexpected argument 'file.c'");
}

TEST(OptionTable, EmptyStringValues) {
  // "--name=" binds an explicit empty value; a bare "" argument routes to
  // the positional handler (argv can legally contain empty strings).
  std::string Entry = "unset";
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.value("--entry", "", "NAME", "", [&](const std::string &V, std::string &) {
    Entry = V;
    return true;
  });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--entry=", ""}, Error)) << Error;
  EXPECT_EQ(Entry, "");
  EXPECT_EQ(Positionals, (std::vector<std::string>{""}));

  // The separate-word spelling also accepts an empty value.
  Entry = "unset";
  EXPECT_TRUE(T.parse({"--entry", ""}, Error)) << Error;
  EXPECT_EQ(Entry, "");
}

TEST(OptionTable, PositionalWithoutHandlerIsError) {
  cli::OptionTable T;
  std::string Error;
  EXPECT_FALSE(T.parse({"stray"}, Error));
  EXPECT_EQ(Error, "unexpected argument 'stray'");
}

// --------------------------------------------------------------------------
// Session
// --------------------------------------------------------------------------

const char *Fig2Program =
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

TEST(Session, LoadsRequestedBuiltins) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(), 2u);
  EXPECT_EQ(S.metrics().counter("qual.loaded").get(), 2u);
}

TEST(Session, ImplicitAllBuiltinsByDefault) {
  Session S;
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(),
            qual::builtinQualifierNames().size());
}

TEST(Session, UnknownBuiltinFailsWithDiagnostic) {
  SessionOptions Options;
  Options.Builtins = {"nope"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  ASSERT_FALSE(S.diags().diagnostics().empty());
  EXPECT_NE(S.diags().diagnostics()[0].Message.find(
                "unknown builtin qualifier 'nope'"),
            std::string::npos);
  // check() on a failed load reports no front end success.
  EXPECT_FALSE(S.check("int main() { return 0; }").FrontEndOk);
}

TEST(Session, MissingQualFileFails) {
  SessionOptions Options;
  Options.QualFiles = {"/nonexistent/stq-no-such-file.q"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  ASSERT_FALSE(S.diags().diagnostics().empty());
  EXPECT_NE(S.diags().diagnostics()[0].Message.find("cannot open"),
            std::string::npos);
}

TEST(Session, QualFileLoads) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  std::string Path = Tmp.path("session_test_qualfile.q");
  {
    std::ofstream OS(Path);
    OS << "value qualifier nonneg(int Expr E)\n"
          "  case E of\n"
          "    decl int Const C:\n"
          "      C, where C >= 0\n"
          "  invariant value(E) >= 0\n";
  }
  SessionOptions Options;
  Options.QualFiles = {Path};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers()) << [&] {
    std::ostringstream OS;
    S.diags().print(OS);
    return OS.str();
  }();
  EXPECT_EQ(S.qualifiers().all().size(), 1u);
}

TEST(Session, LoadIsIdempotent) {
  SessionOptions Options;
  Options.Builtins = {"nonnull"};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(), 1u);
}

TEST(Session, BuiltinsWithDanglingReferencesAreRejected) {
  // pos's subtyping check references neg, so loading it alone must fail
  // well-formedness (and the failure is remembered, not retried).
  SessionOptions Options;
  Options.Builtins = {"pos"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  EXPECT_FALSE(S.loadQualifiers());
  EXPECT_TRUE(S.diags().hasErrors());
}

TEST(Session, CheckPublishesMetrics) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::CheckOutcome Out = S.check(Fig2Program);
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_EQ(Out.Result.QualErrors, 0u);
  EXPECT_EQ(Out.Result.RuntimeChecks.size(), 3u);

  stats::Registry &M = S.metrics();
  EXPECT_GE(M.counter("check.units").get(), 3u);
  EXPECT_EQ(M.counter("check.qual_errors").get(), 0u);
  EXPECT_EQ(M.counter("check.runtime_checks").get(), 3u);
  EXPECT_EQ(M.counter("check.casts_to_value_qualified").get(), 3u);
  EXPECT_EQ(M.histogram("phase.parse_seconds").data().Count, 1u);
  EXPECT_EQ(M.histogram("phase.qualcheck_seconds").data().Count, 1u);
}

TEST(Session, CheckReportsQualifierErrors) {
  SessionOptions Options;
  Options.Builtins = {"nonnull"};
  Session S(Options);
  Session::CheckOutcome Out =
      S.check("int f(int* p) { return *p; }\n");
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_EQ(Out.Result.QualErrors, 1u);
  EXPECT_EQ(S.metrics().counter("check.qual_errors").get(), 1u);
}

TEST(Session, RunExecutesWithChecks) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::RunOutcome Out = S.run(Fig2Program);
  ASSERT_TRUE(Out.Check.FrontEndOk);
  ASSERT_TRUE(Out.Run.ok());
  EXPECT_EQ(*Out.Run.ExitValue, 42);
  EXPECT_GT(S.metrics().counter("interp.steps").get(), 0u);
  EXPECT_GT(S.metrics().counter("interp.checks_executed").get(), 0u);
  EXPECT_EQ(S.metrics().histogram("phase.execute_seconds").data().Count, 1u);
}

TEST(Session, RunWithFrontEndErrorsIsSetupError) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::RunOutcome Out = S.run("int f( {\n");
  EXPECT_FALSE(Out.Check.FrontEndOk);
  EXPECT_EQ(Out.Run.Status, interp::RunStatus::SetupError);
  EXPECT_EQ(Out.Run.TrapMessage, "front-end errors");
}

TEST(Session, ProveQualifierFromInlineSource) {
  SessionOptions Options;
  Options.QualSources = {
      "value qualifier nonneg(int Expr E)\n"
      "  case E of\n"
      "    decl int Const C:\n"
      "      C, where C >= 0\n"
      "  | decl int Expr E1, E2:\n"
      "      E1 + E2, where nonneg(E1) && nonneg(E2)\n"
      "  invariant value(E) >= 0\n"};
  Session S(Options);
  soundness::SoundnessReport Report = S.proveQualifier("nonneg");
  EXPECT_TRUE(Report.sound());
  EXPECT_GT(S.metrics().counter("prove.obligations").get(), 0u);
  EXPECT_EQ(S.metrics().counter("prove.obligations").get(),
            S.metrics().counter("prove.obligations_proved").get());
  EXPECT_GT(S.metrics().histogram("prove.obligation_seconds").data().Count,
            0u);
}

TEST(Session, WarmProverCacheReplaysFromCache) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.WarmProverCache = true;
  Session S(Options);
  auto Reports = S.prove();
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_TRUE(Reports[0].sound());
  EXPECT_TRUE(Reports[1].sound());
  // Warm pass misses everything; the reported pass hits everything.
  EXPECT_DOUBLE_EQ(S.metrics().gauge("prover.cache.hit_rate").get(), 0.5);
  EXPECT_GT(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
}

TEST(Session, CacheFileWarmRerunSkipsAllProving) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string Path = Tmp.path("test_session_cache.stqcache");
  SessionOptions Options;
  Options.Builtins = {"pos", "neg", "nonzero"};
  Options.CacheFile = Path;

  // Cold run: everything proved fresh, cache persisted on exit.
  {
    Session S(Options);
    auto Reports = S.prove();
    ASSERT_EQ(Reports.size(), 3u);
    for (const auto &R : Reports)
      EXPECT_TRUE(R.sound());
    EXPECT_EQ(S.metrics().counter("prover.cache.persist_hits").get(), 0u);
    EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
  }
  // Warm rerun in a fresh process-equivalent Session: every obligation
  // discharges from the loaded file with zero prover calls.
  {
    Session S(Options);
    auto Reports = S.prove();
    ASSERT_EQ(Reports.size(), 3u);
    for (const auto &R : Reports)
      EXPECT_TRUE(R.sound());
    uint64_t Obligations = S.metrics().counter("prove.obligations").get();
    EXPECT_GT(Obligations, 0u);
    EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(),
              Obligations);
    EXPECT_EQ(S.metrics().counter("prover.cache.persist_hits").get(),
              Obligations);
    EXPECT_GT(S.metrics().counter("prover.cache.persist_loaded").get(), 0u);
    EXPECT_EQ(S.metrics().counter("prover.cache.misses").get(), 0u);
    EXPECT_FALSE(S.diags().hasErrors());
    EXPECT_EQ(S.diags().warningCount(), 0u);
  }
}

TEST(Session, CorruptCacheFileIsIgnoredWithWarning) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string Path = Tmp.path("test_session_cache_corrupt.stqcache");
  {
    std::ofstream Out(Path);
    Out << "stq-prover-cache-v0\ngarbage\n";
  }
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.CacheFile = Path;
  Session S(Options);
  auto Reports = S.prove();
  ASSERT_EQ(Reports.size(), 2u);
  // The stale file contributed nothing; proving proceeded from scratch.
  EXPECT_TRUE(Reports[0].sound());
  EXPECT_EQ(S.metrics().counter("prover.cache.persist_loaded").get(), 0u);
  EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
  EXPECT_EQ(S.diags().warningCount(), 1u);
  // prove() then overwrote it with a valid snapshot for the next run.
  {
    Session Rerun(Options);
    auto Again = Rerun.prove();
    ASSERT_EQ(Again.size(), 2u);
    EXPECT_EQ(Rerun.metrics().counter("prove.obligations_from_cache").get(),
              Rerun.metrics().counter("prove.obligations").get());
    EXPECT_EQ(Rerun.diags().warningCount(), 0u);
  }
}

TEST(Session, InferPublishesMetrics) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg", "nonneg", "nonzero"};
  Session S(Options);
  Session::InferenceReport Out = S.infer("int f() {\n"
                                         "  int step = 3;\n"
                                         "  int twice = step * 2;\n"
                                         "  return twice;\n"
                                         "}\n");
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_GT(Out.Report.totalInferred(), 0u);
  EXPECT_EQ(S.metrics().counter("infer.annotations").get(),
            Out.Report.totalInferred());
  EXPECT_EQ(S.metrics().counter("infer.suggestions").get(),
            Out.Report.Stats.Suggested);
}

TEST(Session, EmitMetricsJsonIsWellFormed) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  S.check(Fig2Program);
  std::ostringstream OS;
  S.emitMetrics(OS, metrics::Format::Json);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"schema\": \"stq-metrics-v1\""), std::string::npos);
  EXPECT_NE(Out.find("\"check.units\""), std::string::npos);
  EXPECT_NE(Out.find("\"diag.errors\": 0"), std::string::npos);
  EXPECT_NE(Out.find("\"phase.parse_seconds\""), std::string::npos);
}

// The determinism contract: for a fixed input, every counter outside
// schedulingDependentCounterPrefixes() is identical for any --jobs value.
TEST(Session, CounterTotalsAreJobCountInvariant) {
  std::string Source = "int* nonnull keep(int* nonnull p) { return p; }\n";
  for (int I = 0; I < 6; ++I) {
    Source += "int f" + std::to_string(I) +
              "(int* p, int* nonnull q) {\n"
              "  int a = *q;\n"
              "  int b = *p;\n" // unproven dereference: one error each
              "  return a + b;\n"
              "}\n";
  }

  auto counters = [&](unsigned Jobs) {
    SessionOptions Options;
    Options.Builtins = {"nonnull"};
    Options.Jobs = Jobs;
    Session S(Options);
    Session::CheckOutcome Out = S.check(Source);
    EXPECT_TRUE(Out.FrontEndOk);
    auto Snap = S.metrics().snapshot();
    for (const std::string &P : metrics::schedulingDependentCounterPrefixes())
      for (auto It = Snap.Counters.begin(); It != Snap.Counters.end();)
        It = It->first.rfind(P, 0) == 0 ? Snap.Counters.erase(It)
                                        : std::next(It);
    return Snap.Counters;
  };

  auto Sequential = counters(1);
  auto Parallel = counters(4);
  EXPECT_EQ(Sequential, Parallel);
  EXPECT_EQ(Sequential.at("check.qual_errors"), 6u);
}

// `stqc check --jobs 4 --trace` of a multi-TU program: the front end and
// the checker run on the calling thread plus at most three reused pool
// helpers, so the trace has at most four thread ids however many TUs and
// functions there are.
TEST(Session, TracedMultiTuCheckUsesAtMostJobsThreads) {
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(12, 6, 3);
  pp::FileMap Files;
  for (const auto &H : P.Headers)
    Files[H.Name] = H.Text;
  std::vector<frontend::InputFile> Inputs;
  for (const auto &U : P.Units)
    Inputs.push_back({U.Name, U.Text});

  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.Jobs = 4;
  Options.IncludeDirs = {"."};
  Options.ShippedFiles = &Files;
  trace::Tracer::start();
  {
    Session S(Options);
    EXPECT_TRUE(S.checkFiles(Inputs).Load.ok());
  }
  std::vector<trace::TraceEvent> Events = trace::Tracer::stop();
  std::set<uint32_t> Tids;
  for (const trace::TraceEvent &E : Events)
    Tids.insert(E.Tid);
  EXPECT_FALSE(Events.empty());
  EXPECT_LE(Tids.size(), 4u);
}

TEST(Session, MultiInputCheckTimesTeardownOnce) {
  // `stqc check` over several inputs frees every TU's arena under
  // phase.teardown_seconds before it emits metrics: exactly one sample.
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(4, 3, 3);
  server::Invocation Inv;
  Inv.Command = "check";
  for (const auto &H : P.Headers)
    Inv.Files[H.Name] = H.Text;
  Inv.HasFiles = true;
  for (const auto &U : P.Units)
    Inv.Inputs.push_back({U.Name, U.Text});
  Inv.Session.Builtins = {"pos", "neg"};
  Inv.Session.IncludeDirs = {"."};
  Inv.Metrics = true;
  server::ExecResult R = server::executeInvocation(Inv);
  EXPECT_EQ(R.ExitCode, 1) << R.Err;
  EXPECT_NE(R.Out.find("phase.teardown_seconds: count=1 "), std::string::npos)
      << R.Out;
}

} // namespace
