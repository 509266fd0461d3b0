//===- test_bench_report.cpp - The stq-bench-v2 report writer -------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// bench/Report.h is the one writer behind every BENCH_*.json file, and its
// exit status is what CI gates on. These tests pin the document shape and
// the rules that turn entries and gates into that status.
//
//===----------------------------------------------------------------------===//

#include "TestTempDir.h"
#include "bench/Report.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace stq;
using bench::GateKind;
using bench::Report;

namespace {

class BenchReportTest : public ::testing::Test {
protected:
  void SetUp() override {
    ASSERT_TRUE(Tmp.valid());
    ::setenv("STQ_BENCH_DIR", Tmp.str().c_str(), 1);
    ::unsetenv("STQ_ENFORCE_TIMING_BOUNDS");
  }
  void TearDown() override {
    ::unsetenv("STQ_BENCH_DIR");
    ::unsetenv("STQ_ENFORCE_TIMING_BOUNDS");
  }

  json::Value readReport(const std::string &Stem) {
    std::ifstream In(Tmp.path("BENCH_" + Stem + ".json"));
    std::stringstream SS;
    SS << In.rdbuf();
    json::Value Doc;
    std::string Error;
    EXPECT_TRUE(json::parse(SS.str(), Doc, Error)) << Error << "\n"
                                                   << SS.str();
    return Doc;
  }

  stq::testing::TempDir Tmp;
};

TEST_F(BenchReportTest, DetailRoundTripsThroughJson) {
  const std::string Nasty = "say \"hi\", C:\\dir\\, then\na new line";
  Report R("bench_test", "roundtrip", "round trip");
  R.add("latency_seconds", 0.25, "seconds", Nasty);
  R.add("items", 3, "count");
  R.gate("verdicts_match", GateKind::Correctness, true, Nasty);
  R.gate("under_bound", GateKind::Timing, true);
  ASSERT_EQ(R.finish(), 0);

  json::Value Doc = readReport("roundtrip");
  EXPECT_EQ(Doc.getString("schema"), "stq-bench-v2");
  EXPECT_EQ(Doc.getString("bench"), "bench_test");
  const json::Value *Entries = Doc.get("entries");
  ASSERT_TRUE(Entries && Entries->isArray());
  ASSERT_EQ(Entries->elements().size(), 2u);
  const json::Value &E = Entries->elements()[0];
  EXPECT_EQ(E.getString("name"), "latency_seconds");
  ASSERT_TRUE(E.get("value") && E.get("value")->isNumber());
  EXPECT_DOUBLE_EQ(E.get("value")->asDouble(), 0.25);
  EXPECT_EQ(E.getString("unit"), "seconds");
  EXPECT_EQ(E.getString("detail"), Nasty);
  EXPECT_EQ(Entries->elements()[1].get("value")->asDouble(), 3.0);

  const json::Value *Gates = Doc.get("gates");
  ASSERT_TRUE(Gates && Gates->isArray());
  ASSERT_EQ(Gates->elements().size(), 2u);
  const json::Value &G = Gates->elements()[0];
  EXPECT_EQ(G.getString("name"), "verdicts_match");
  EXPECT_EQ(G.getString("kind"), "correctness");
  EXPECT_TRUE(G.getBool("ok"));
  EXPECT_EQ(G.getString("detail"), Nasty);
  EXPECT_EQ(Gates->elements()[1].getString("kind"), "timing");
}

TEST_F(BenchReportTest, DuplicateNameFails) {
  Report Entries("bench_test", "dup_entry", "duplicate entry");
  Entries.add("speedup", 2.0, "ratio");
  Entries.add("speedup", 3.0, "ratio");
  EXPECT_NE(Entries.finish(), 0);

  Report Gates("bench_test", "dup_gate", "duplicate gate");
  Gates.gate("identical", GateKind::Correctness, true);
  Gates.gate("identical", GateKind::Correctness, true);
  EXPECT_NE(Gates.finish(), 0);
}

TEST_F(BenchReportTest, UnwritableDirectoryFails) {
  ::setenv("STQ_BENCH_DIR", Tmp.path("no/such/dir").c_str(), 1);
  Report R("bench_test", "lost", "lost report");
  R.add("items", 1, "count");
  EXPECT_NE(R.finish(), 0);
}

TEST_F(BenchReportTest, FailedCorrectnessGateAlwaysFails) {
  Report R("bench_test", "correctness", "correctness gate");
  R.gate("byte_identical", GateKind::Correctness, false, "diverged");
  EXPECT_NE(R.finish(), 0);
  json::Value Doc = readReport("correctness");
  ASSERT_TRUE(Doc.get("gates"));
  EXPECT_FALSE(Doc.get("gates")->elements()[0].getBool("ok", true));
}

TEST_F(BenchReportTest, FailedTimingGateFailsOnlyWhenEnforced) {
  Report R("bench_test", "timing", "timing gate");
  R.gate("speedup_3x", GateKind::Timing, false);
  EXPECT_EQ(R.finish(), 0);
  ::setenv("STQ_ENFORCE_TIMING_BOUNDS", "0", 1);
  EXPECT_EQ(R.finish(), 0);
  ::setenv("STQ_ENFORCE_TIMING_BOUNDS", "1", 1);
  EXPECT_NE(R.finish(), 0);
}

} // namespace
