//===- Sema.h - Base semantic analysis for C-minus --------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The base type system. Sema resolves calls, assigns a static type to
/// every expression and l-value, and checks *unqualified* structural
/// compatibility; all qualifier reasoning is deferred to the extensible
/// typechecker. Reference qualifiers are stripped from the r-types of
/// l-value reads here (paper section 2.2.1), which is why Sema must be told
/// which loaded qualifiers are reference qualifiers.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_SEMA_H
#define STQ_CMINUS_SEMA_H

#include "cminus/AST.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace stq::cminus {

/// Runs base semantic analysis over \p Prog.
///
/// \param RefQualNames the loaded reference-qualifier names (stripped from
///        r-types of l-value reads).
/// \returns true if no errors were reported (phase "sema").
bool runSema(Program &Prog, const std::vector<std::string> &RefQualNames,
             DiagnosticEngine &Diags);

/// Returns true if a value of deep-unqualified type \p Src may flow into a
/// location of deep-unqualified type \p Dst under the base type system
/// (identical structure; char/int interchangeable; NULL and void* to any
/// pointer and back).
bool isBaseAssignable(TypePtr Src, TypePtr Dst);

} // namespace stq::cminus

#endif // STQ_CMINUS_SEMA_H
