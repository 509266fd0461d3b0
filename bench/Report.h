//===- Report.h - The one bench report writer (stq-bench-v2) ----*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// Every bench binary that tracks a paper claim or an acceptance bound
// records its numbers and its gates in one Report. finish() prints them as
// an aligned table, writes $STQ_BENCH_DIR/BENCH_<stem>.json, and turns the
// gates into the process exit status. The document, built on support/Json:
//
//   {"schema": "stq-bench-v2", "bench": "<binary>",
//    "entries": [{"name", "value", "unit", "detail"}, ...],
//    "gates":   [{"name", "kind", "ok", "detail"}, ...]}
//
// A failed `correctness` gate (a result that must not drift: byte
// identity, pinned table values, verdict agreement) fails the run in any
// environment. A failed `timing` gate (a wall-clock bound, noisy on shared
// hosts) fails it only when STQ_ENFORCE_TIMING_BOUNDS is set to anything
// but 0, as CI does. A duplicate entry or gate name, or a report that
// could not be written, fails it too: a lost or ambiguous record is as bad
// as a wrong one.
//
// Environment:
//   STQ_BENCH_DIR              directory for BENCH_<stem>.json (default .)
//   STQ_ENFORCE_TIMING_BOUNDS  non-zero: failed timing gates fail the run
//
//===----------------------------------------------------------------------===//

#ifndef STQ_BENCH_REPORT_H
#define STQ_BENCH_REPORT_H

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace stq::bench {

enum class GateKind { Correctness, Timing };

class Report {
public:
  /// \p Bench names the binary, \p Stem the file (BENCH_<Stem>.json), and
  /// \p Title heads the printed table.
  Report(std::string Bench, std::string Stem, std::string Title)
      : Bench(std::move(Bench)), Stem(std::move(Stem)),
        Title(std::move(Title)) {}

  void add(std::string Name, double Value, std::string Unit,
           std::string Detail = {}) {
    Entries.push_back(
        {std::move(Name), Value, std::move(Unit), std::move(Detail)});
  }

  void gate(std::string Name, GateKind Kind, bool Ok,
            std::string Detail = {}) {
    Gates.push_back({std::move(Name), Kind, Ok, std::move(Detail)});
  }

  /// Prints, writes, and returns the exit status: 0 unless a name repeats,
  /// the write failed, or an enforced gate failed.
  int finish() const {
    std::vector<std::string> Failures;
    size_t Width = 0;
    for (const Entry &E : Entries)
      Width = std::max(Width, E.Name.size());
    for (const Gate &G : Gates)
      Width = std::max(Width, G.Name.size() + 5);

    const bool EnforceTiming = timingEnforced();
    std::printf("=== %s ===\n", Title.c_str());
    for (const Entry &E : Entries)
      std::printf("%-*s %16.6f %s\n", static_cast<int>(Width),
                  E.Name.c_str(), E.Value, E.Unit.c_str());
    for (const Gate &G : Gates) {
      bool Enforced = G.Kind == GateKind::Correctness || EnforceTiming;
      std::printf("gate %-*s %-11s %s%s%s\n", static_cast<int>(Width - 5),
                  G.Name.c_str(), kindName(G.Kind),
                  G.Ok ? "ok" : Enforced ? "FAILED" : "FAILED (not enforced)",
                  G.Detail.empty() ? "" : ": ", G.Detail.c_str());
      if (!G.Ok && Enforced)
        Failures.push_back(std::string(kindName(G.Kind)) + " gate '" +
                           G.Name + "' failed");
    }

    std::set<std::string> EntryNames, GateNames;
    for (const Entry &E : Entries)
      if (!EntryNames.insert(E.Name).second)
        Failures.push_back("duplicate entry name '" + E.Name + "'");
    for (const Gate &G : Gates)
      if (!GateNames.insert(G.Name).second)
        Failures.push_back("duplicate gate name '" + G.Name + "'");

    const std::string Path = path();
    if (write(Path))
      std::printf("report written to %s\n\n", Path.c_str());
    else
      Failures.push_back("could not write " + Path);

    // The table goes to stdout and the verdict to stderr; flush first so
    // the two never interleave in a captured log.
    std::fflush(stdout);
    for (const std::string &F : Failures)
      std::fprintf(stderr, "%s: FAIL: %s\n", Bench.c_str(), F.c_str());
    return Failures.empty() ? 0 : 1;
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Detail;
  };
  struct Gate {
    std::string Name;
    GateKind Kind;
    bool Ok;
    std::string Detail;
  };

  static const char *kindName(GateKind K) {
    return K == GateKind::Correctness ? "correctness" : "timing";
  }

  std::string path() const {
    const char *Dir = std::getenv("STQ_BENCH_DIR");
    std::string Prefix = Dir && *Dir ? std::string(Dir) + "/" : "";
    return Prefix + "BENCH_" + Stem + ".json";
  }

  static bool timingEnforced() {
    const char *Enforce = std::getenv("STQ_ENFORCE_TIMING_BOUNDS");
    return Enforce && *Enforce && std::string(Enforce) != "0";
  }

  bool write(const std::string &Path) const {
    json::Value Doc = json::Value::object();
    Doc.set("schema", json::Value::str("stq-bench-v2"));
    Doc.set("bench", json::Value::str(Bench));
    json::Value EntryList = json::Value::array();
    for (const Entry &E : Entries) {
      json::Value V = json::Value::object();
      V.set("name", json::Value::str(E.Name));
      V.set("value", json::Value::number(E.Value));
      V.set("unit", json::Value::str(E.Unit));
      V.set("detail", json::Value::str(E.Detail));
      EntryList.push(std::move(V));
    }
    Doc.set("entries", std::move(EntryList));
    json::Value GateList = json::Value::array();
    for (const Gate &G : Gates) {
      json::Value V = json::Value::object();
      V.set("name", json::Value::str(G.Name));
      V.set("kind", json::Value::str(kindName(G.Kind)));
      V.set("ok", json::Value::boolean(G.Ok));
      V.set("detail", json::Value::str(G.Detail));
      GateList.push(std::move(V));
    }
    Doc.set("gates", std::move(GateList));

    const std::string Text = Doc.write() + "\n";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    return std::fclose(F) == 0 && Ok;
  }

  std::string Bench, Stem, Title;
  std::vector<Entry> Entries;
  std::vector<Gate> Gates;
};

} // namespace stq::bench

#endif // STQ_BENCH_REPORT_H
