//===- Diagnostics.h - Diagnostic collection and reporting -----*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A diagnostic engine shared by all phases. Following the paper's CIL
/// implementation, qualifier-checking errors are reported as warnings and do
/// not abort processing; hard parse errors stop the current phase.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_DIAGNOSTICS_H
#define STQ_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace stq {

enum class DiagSeverity { Note, Warning, Error };

/// One reported diagnostic: severity, optional location, message text, and
/// the phase that produced it (e.g. "parse", "qualcheck", "soundness").
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLoc Loc;
  /// Optional file attribution, set by the multi-TU front end (the
  /// preprocessor's line map resolves post-expansion locations back to
  /// the including file). Empty for the classic single-input pipeline,
  /// which renders exactly as it always has.
  std::string File;
  std::string Phase;
  std::string Message;

  std::string str() const;
};

const char *severityName(DiagSeverity S);

/// Receives diagnostics as they are reported, so drivers render them
/// without iterating the raw diagnostics() vector after the fact. Attach
/// with DiagnosticEngine::setConsumer; handleDiagnostic is called in report
/// order, finish() once when the producing pipeline completes (required for
/// the JSON consumer to close its document).
class DiagnosticConsumer {
public:
  virtual ~DiagnosticConsumer();
  virtual void handleDiagnostic(const Diagnostic &D) = 0;
  virtual void finish() {}
};

/// Streams each diagnostic as Diagnostic::str() plus a newline —
/// byte-for-byte the historical `stqc` stderr output. An optional phase
/// filter keeps only matching diagnostics (e.g. "qualcheck").
class TextDiagnosticConsumer : public DiagnosticConsumer {
public:
  explicit TextDiagnosticConsumer(std::ostream &OS, std::string PhaseFilter = {})
      : OS(OS), PhaseFilter(std::move(PhaseFilter)) {}
  void handleDiagnostic(const Diagnostic &D) override;

private:
  std::ostream &OS;
  std::string PhaseFilter;
};

/// Collects diagnostics and emits one "stq-diagnostics-v1" JSON document on
/// finish() (schema in docs/OBSERVABILITY.md).
class JsonDiagnosticConsumer : public DiagnosticConsumer {
public:
  explicit JsonDiagnosticConsumer(std::ostream &OS) : OS(OS) {}
  void handleDiagnostic(const Diagnostic &D) override;
  void finish() override;

private:
  std::ostream &OS;
  std::vector<Diagnostic> Pending;
  bool Finished = false;
};

/// Collects diagnostics across phases. Not thread-safe; one engine per
/// compilation.
class DiagnosticEngine {
public:
  void report(DiagSeverity Severity, SourceLoc Loc, std::string Phase,
              std::string Message);
  /// Reports a fully-built diagnostic (the multi-TU front end remaps
  /// per-unit diagnostics and re-reports them here with File set).
  void report(Diagnostic D);

  /// Forwards every subsequent report to \p C (also still collected in the
  /// diagnostics() vector). Pass nullptr to detach. The engine does not own
  /// the consumer and never calls finish() itself.
  void setConsumer(DiagnosticConsumer *C) { Consumer = C; }
  DiagnosticConsumer *consumer() const { return Consumer; }

  void error(SourceLoc Loc, std::string Phase, std::string Message) {
    report(DiagSeverity::Error, Loc, std::move(Phase), std::move(Message));
  }
  void warning(SourceLoc Loc, std::string Phase, std::string Message) {
    report(DiagSeverity::Warning, Loc, std::move(Phase), std::move(Message));
  }
  void note(SourceLoc Loc, std::string Phase, std::string Message) {
    report(DiagSeverity::Note, Loc, std::move(Phase), std::move(Message));
  }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  /// Moves every collected diagnostic out and resets the counters, like
  /// clear().
  std::vector<Diagnostic> takeDiagnostics();

  unsigned errorCount() const { return NumErrors; }
  unsigned warningCount() const { return NumWarnings; }
  bool hasErrors() const { return NumErrors != 0; }

  /// Number of diagnostics (any severity) whose phase matches \p Phase.
  unsigned countInPhase(const std::string &Phase) const;

  /// Drops all collected diagnostics and resets counters.
  void clear();

  /// Prints every diagnostic, one per line, to \p OS.
  void print(std::ostream &OS) const;

private:
  std::vector<Diagnostic> Diags;
  DiagnosticConsumer *Consumer = nullptr;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
};

} // namespace stq

#endif // STQ_SUPPORT_DIAGNOSTICS_H
