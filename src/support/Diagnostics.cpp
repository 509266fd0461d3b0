//===- Diagnostics.cpp ----------------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/MetricsEmitter.h"

#include <ostream>

using namespace stq;

const char *stq::severityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "unknown";
}

DiagnosticConsumer::~DiagnosticConsumer() = default;

void TextDiagnosticConsumer::handleDiagnostic(const Diagnostic &D) {
  if (!PhaseFilter.empty() && D.Phase != PhaseFilter)
    return;
  OS << D.str() << "\n";
}

void JsonDiagnosticConsumer::handleDiagnostic(const Diagnostic &D) {
  Pending.push_back(D);
}

void JsonDiagnosticConsumer::finish() {
  if (Finished)
    return;
  Finished = true;
  OS << "{\n  \"schema\": \"stq-diagnostics-v1\",\n  \"diagnostics\": [";
  bool First = true;
  for (const Diagnostic &D : Pending) {
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "    {\"severity\": \"" << severityName(D.Severity)
       << "\", \"phase\": \"" << metrics::jsonEscape(D.Phase) << "\", ";
    if (!D.File.empty())
      OS << "\"file\": \"" << metrics::jsonEscape(D.File) << "\", ";
    if (D.Loc.isValid())
      OS << "\"line\": " << D.Loc.Line << ", \"col\": " << D.Loc.Col << ", ";
    OS << "\"message\": \"" << metrics::jsonEscape(D.Message) << "\"}";
  }
  OS << (First ? "]\n" : "\n  ]\n") << "}\n";
  Pending.clear();
}

std::string Diagnostic::str() const {
  std::string Out;
  if (!File.empty()) {
    Out += File;
    Out += ":";
    // A file-attributed diagnostic always renders a position slot, so
    // "a.c:3:7: ..." and file-level messages stay visually aligned.
    if (!Loc.isValid())
      Out += " ";
  }
  if (Loc.isValid()) {
    Out += Loc.str();
    Out += ": ";
  }
  Out += severityName(Severity);
  if (!Phase.empty()) {
    Out += " [";
    Out += Phase;
    Out += "]";
  }
  Out += ": ";
  Out += Message;
  return Out;
}

void DiagnosticEngine::report(DiagSeverity Severity, SourceLoc Loc,
                              std::string Phase, std::string Message) {
  if (Severity == DiagSeverity::Error)
    ++NumErrors;
  else if (Severity == DiagSeverity::Warning)
    ++NumWarnings;
  Diags.push_back({Severity, Loc, /*File=*/{}, std::move(Phase),
                   std::move(Message)});
  if (Consumer)
    Consumer->handleDiagnostic(Diags.back());
}

void DiagnosticEngine::report(Diagnostic D) {
  if (D.Severity == DiagSeverity::Error)
    ++NumErrors;
  else if (D.Severity == DiagSeverity::Warning)
    ++NumWarnings;
  Diags.push_back(std::move(D));
  if (Consumer)
    Consumer->handleDiagnostic(Diags.back());
}

unsigned DiagnosticEngine::countInPhase(const std::string &Phase) const {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Phase == Phase)
      ++N;
  return N;
}

std::vector<Diagnostic> DiagnosticEngine::takeDiagnostics() {
  std::vector<Diagnostic> Out = std::move(Diags);
  clear();
  return Out;
}

void DiagnosticEngine::clear() {
  Diags.clear();
  NumErrors = 0;
  NumWarnings = 0;
}

void DiagnosticEngine::print(std::ostream &OS) const {
  for (const Diagnostic &D : Diags)
    OS << D.str() << "\n";
}
