//===- Interp.h - C-minus interpreter with run-time checks ------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A big-step interpreter for lowered C-minus programs. It plays the role
/// of gcc + hardware in the paper's pipeline: it executes the program the
/// extensible typechecker instrumented, firing the run-time qualifier
/// checks at casts to value-qualified types (section 2.1.3; a fatal error
/// is signaled when a check fails), and it models `printf` format-string
/// consumption so format-string vulnerabilities are dynamically observable
/// (section 6.3).
///
/// Memory is block-based: every variable and allocation is a block of
/// cells; pointers are (block, offset) pairs, which realizes the paper's
/// logical model of memory (p+i stays within p's block type).
///
//===----------------------------------------------------------------------===//

#ifndef STQ_INTERP_INTERP_H
#define STQ_INTERP_INTERP_H

#include "checker/Checker.h"
#include "cminus/AST.h"
#include "qual/QualAST.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <limits>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace stq::interp {

/// A run-time value: an integer or a pointer (NULL is the zero pointer of
/// a distinguished invalid block).
struct Value {
  enum class Kind { Int, Ptr, Null };

  Kind K = Kind::Int;
  int64_t Int = 0;
  uint32_t Block = 0;
  int64_t Off = 0;

  static Value makeInt(int64_t V) { return Value{Kind::Int, V, 0, 0}; }
  static Value makeNull() { return Value{Kind::Null, 0, 0, 0}; }
  static Value makePtr(uint32_t Block, int64_t Off) {
    return Value{Kind::Ptr, 0, Block, Off};
  }

  bool isTruthy() const {
    switch (K) {
    case Kind::Int:
      return Int != 0;
    case Kind::Null:
      return false;
    case Kind::Ptr:
      return true;
    }
    return false;
  }

  std::string str() const;
};

/// How a run terminated.
enum class RunStatus {
  Ok,                  ///< Entry function returned normally.
  Trap,                ///< Memory error (null/dangling/out-of-bounds).
  CheckFailure,        ///< A run-time qualifier check failed (fatal error).
  FuelExhausted,       ///< Step budget exceeded.
  SetupError,          ///< Missing entry point or malformed program.
};

/// One fired run-time qualifier check that failed.
struct CheckFailure {
  SourceLoc Loc;
  std::string Qual;
  std::string ValueStr;
};

/// One printf-style call that consumed more arguments than were supplied:
/// the dynamic signature of a format-string vulnerability.
struct FormatViolation {
  SourceLoc Loc;
  std::string Format;
  unsigned Supplied = 0;
  unsigned Consumed = 0;
};

struct RunResult {
  RunStatus Status = RunStatus::SetupError;
  /// Entry function's return value, when Status == Ok.
  std::optional<int64_t> ExitValue;
  /// Everything printf produced.
  std::string Output;
  std::string TrapMessage;
  std::vector<CheckFailure> CheckFailures;
  std::vector<FormatViolation> FormatViolations;
  /// Declared value-qualifier invariants that were violated by a store the
  /// checker accepted (audit mode only). Non-empty means the static checker
  /// let an invariant-breaking value reach a qualified location: a direct
  /// counterexample to the paper's Theorem 5.1.
  std::vector<CheckFailure> AuditFailures;
  uint64_t Steps = 0;
  /// Run-time qualifier checks that executed (pass or fail).
  uint64_t ChecksExecuted = 0;
  /// Invariant audits that executed in audit mode (pass or fail).
  uint64_t AuditChecks = 0;

  bool ok() const { return Status == RunStatus::Ok; }
};

struct InterpOptions {
  std::string EntryPoint = "main";
  uint64_t Fuel = 10'000'000;
  /// When set, every store to a location whose declared type carries a
  /// value qualifier with an invariant re-evaluates that invariant against
  /// the stored value, recording (not trapping on) violations in
  /// RunResult::AuditFailures. This turns Theorem 5.1 into an executable
  /// oracle: on checker-accepted programs the audit must never fire.
  /// Uninitialized declarations and the synthetic entry-point argument
  /// binding are exempt (the checker does not govern those default values).
  bool AuditQualifiedStores = false;
};

/// The interpreter's total-order comparison semantics over run-time values:
/// integers sort before pointers, NULL is the zero pointer of the invalid
/// block, pointers compare by (block, offset). Shared with the bytecode VM
/// (src/vm) so both engines agree on comparisons by construction.
bool compareValues(cminus::BinaryOp Op, const Value &L, const Value &R);

/// The integer semantics of `+ - * / %` for both engines, with no host UB:
/// `+ - *` wrap modulo 2^64 (the engines' integers are two's-complement
/// 64-bit), and a division or remainder whose result is undefined is a
/// trap. Returns null and stores the result in \p Out, or returns the trap
/// message: "division by zero", or "division overflow" for
/// INT64_MIN / -1 and INT64_MIN % -1.
inline const char *intArith(cminus::BinaryOp Op, int64_t A, int64_t B,
                            int64_t &Out) {
  auto Wrap = [](uint64_t X) { return static_cast<int64_t>(X); };
  switch (Op) {
  case cminus::BinaryOp::Add:
    Out = Wrap(static_cast<uint64_t>(A) + static_cast<uint64_t>(B));
    return nullptr;
  case cminus::BinaryOp::Sub:
    Out = Wrap(static_cast<uint64_t>(A) - static_cast<uint64_t>(B));
    return nullptr;
  case cminus::BinaryOp::Mul:
    Out = Wrap(static_cast<uint64_t>(A) * static_cast<uint64_t>(B));
    return nullptr;
  case cminus::BinaryOp::Div:
  case cminus::BinaryOp::Rem:
    if (B == 0)
      return "division by zero";
    if (A == std::numeric_limits<int64_t>::min() && B == -1)
      return "division overflow";
    Out = Op == cminus::BinaryOp::Div ? A / B : A % B;
    return nullptr;
  default:
    return "not an arithmetic operator";
  }
}

/// Integer negation, wrapping like intArith (-INT64_MIN is INT64_MIN).
inline int64_t intNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Evaluates a value-qualifier invariant against a concrete value \p V.
/// \p IsHeapBlock answers whether a block id names a heap allocation (the
/// `isheap value(E)` predicate); it is only consulted for pointer values.
/// Shared with the bytecode VM so guard/audit outcomes are bit-identical.
bool invariantHolds(const qual::InvPred &Inv, const Value &V,
                    const std::function<bool(uint32_t)> &IsHeapBlock);

/// Executes \p Prog. \p Quals supplies invariant definitions for the
/// run-time checks listed in \p Checks (produced by the extensible
/// typechecker).
RunResult runProgram(const cminus::Program &Prog,
                     const qual::QualifierSet &Quals,
                     const std::vector<checker::RuntimeCastCheck> &Checks,
                     InterpOptions Options = {});

/// Convenience: full pipeline (parse, sema, lower, qualifier-check,
/// execute). Qualifier warnings do not block execution, as in the paper.
RunResult runSource(const std::string &Source,
                    const qual::QualifierSet &Quals, DiagnosticEngine &Diags,
                    InterpOptions Options = {});

} // namespace stq::interp

#endif // STQ_INTERP_INTERP_H
