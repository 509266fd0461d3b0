//===- MetricsEmitter.cpp -------------------------------------------------===//

#include "support/MetricsEmitter.h"

#include <cstdio>
#include <ostream>

using namespace stq;
using namespace stq::metrics;

std::optional<Format> stq::metrics::parseFormat(const std::string &Name) {
  if (Name.empty() || Name == "text")
    return Format::Text;
  if (Name == "json")
    return Format::Json;
  return std::nullopt;
}

MetricsEmitter::~MetricsEmitter() = default;

std::unique_ptr<MetricsEmitter> MetricsEmitter::create(Format F) {
  if (F == Format::Json)
    return std::make_unique<JsonMetricsEmitter>();
  return std::make_unique<TextMetricsEmitter>();
}

namespace {

std::string fmtDouble(double V, const char *Spec = "%.9g") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Spec, V);
  return Buf;
}

} // namespace

void TextMetricsEmitter::emit(const stats::Registry::Snapshot &S,
                              std::ostream &OS) const {
  for (const auto &[Name, V] : S.Counters)
    OS << Name << " = " << V << "\n";
  for (const auto &[Name, V] : S.Gauges)
    OS << Name << " = " << fmtDouble(V, "%.3f") << "\n";
  for (const auto &[Name, D] : S.Histograms) {
    OS << Name << ": count=" << D.Count << " sum=" << fmtDouble(D.Sum)
       << " min=" << fmtDouble(D.Min) << " max=" << fmtDouble(D.Max)
       << " mean=" << fmtDouble(D.mean()) << "\n";
  }
}

void JsonMetricsEmitter::emit(const stats::Registry::Snapshot &S,
                              std::ostream &OS) const {
  OS << "{\n  \"schema\": \"stq-metrics-v1\",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : S.Counters) {
    OS << (First ? "\n" : ",\n") << "    \"" << jsonEscape(Name)
       << "\": " << V;
    First = false;
  }
  OS << (First ? "},\n" : "\n  },\n");
  OS << "  \"gauges\": {";
  First = true;
  for (const auto &[Name, V] : S.Gauges) {
    OS << (First ? "\n" : ",\n") << "    \"" << jsonEscape(Name)
       << "\": " << fmtDouble(V);
    First = false;
  }
  OS << (First ? "},\n" : "\n  },\n");
  OS << "  \"histograms\": {";
  First = true;
  for (const auto &[Name, D] : S.Histograms) {
    OS << (First ? "\n" : ",\n") << "    \"" << jsonEscape(Name) << "\": {"
       << "\"count\": " << D.Count << ", \"sum\": " << fmtDouble(D.Sum)
       << ", \"min\": " << fmtDouble(D.Min)
       << ", \"max\": " << fmtDouble(D.Max)
       << ", \"mean\": " << fmtDouble(D.mean()) << ", \"buckets\": [";
    for (size_t I = 0; I < D.Buckets.size(); ++I)
      OS << (I ? ", " : "") << D.Buckets[I];
    OS << "]}";
    First = false;
  }
  OS << (First ? "}\n" : "\n  }\n");
  OS << "}\n";
}

void stq::metrics::writeChromeTrace(
    const std::vector<trace::TraceEvent> &Events, std::ostream &OS) {
  OS << "{\"traceEvents\": [";
  bool First = true;
  for (const trace::TraceEvent &E : Events) {
    OS << (First ? "\n" : ",\n");
    First = false;
    std::string Name = E.Name;
    if (!E.Detail.empty())
      Name += " " + E.Detail;
    OS << "  {\"name\": \"" << jsonEscape(Name) << "\", \"ph\": \""
       << (E.K == trace::TraceEvent::Kind::Span ? "X" : "i")
       << "\", \"ts\": " << E.StartUs;
    if (E.K == trace::TraceEvent::Kind::Span)
      OS << ", \"dur\": " << E.DurUs;
    else
      OS << ", \"s\": \"t\"";
    OS << ", \"pid\": 1, \"tid\": " << E.Tid << ", \"args\": {\"depth\": "
       << E.Depth << "}}";
  }
  OS << (First ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

const std::vector<std::string> &
stq::metrics::schedulingDependentCounterPrefixes() {
  // pool.*: jobs/steals are the schedule itself. prover.cache.contended:
  // shard-mutex collisions only exist with concurrent probes.
  // incremental.*: hit/miss/eviction accounting depends on store history,
  // not on the program being checked. (check.memo.* is not here: the memo
  // starts empty in every unit at any job count; see checker/Parallel.h.)
  static const std::vector<std::string> Prefixes = {
      "pool.", "prover.cache.contended", "incremental."};
  return Prefixes;
}

std::string stq::metrics::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}
