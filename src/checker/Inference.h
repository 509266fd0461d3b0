//===- Inference.h - Reference value-qualifier inference --------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential reference for qualifier inference, the paper's section 8
/// future-work item "support for qualifier inference to decrease the
/// annotation burden." Users reach inference through the constraint engine
/// (ConstraintInference.h); this engine is the oracle the tests and
/// `stq-fuzz --oracle inference` hold that engine's full inferred set to.
///
/// The engine computes, for every variable, the largest set of value
/// qualifiers consistent with every assignment to it (a greatest-fixpoint
/// iteration: start optimistic, remove a qualifier whenever some
/// assignment's right-hand side cannot be given it under the current
/// assumptions). Inferred qualifiers are exactly those the programmer
/// could have written by hand and had accepted by the extensible
/// typechecker, so inference changes no judgments - it only discovers
/// annotations.
///
/// Like the paper's checker, inference is flow-insensitive and inherits
/// the documented use-before-initialization caveat (section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_INFERENCE_H
#define STQ_CHECKER_INFERENCE_H

#include "checker/Checker.h"

#include <map>
#include <set>
#include <string>

namespace stq::checker {

struct InferenceOptions {
  /// Only infer for locals and parameters (globals are API surface and
  /// usually deserve explicit annotations).
  bool LocalsOnly = false;
};

struct InferenceOutcome {
  /// Newly inferred qualifiers per variable (declared ones excluded).
  std::map<const cminus::VarDecl *, std::set<std::string>> Inferred;
  unsigned Iterations = 0;
  /// Total inferred (variable, qualifier) pairs.
  unsigned totalInferred() const {
    unsigned N = 0;
    for (const auto &[Var, Quals] : Inferred)
      N += static_cast<unsigned>(Quals.size());
    return N;
  }
};

/// Infers value-qualifier annotations for \p Prog (which must be
/// Sema-checked and lowered). Sweeps until one drops nothing; every
/// productive sweep removes at least one atom from a finite set, so this
/// always terminates. Does not mutate the program.
InferenceOutcome inferQualifiers(cminus::Program &Prog,
                                 const qual::QualifierSet &Quals,
                                 InferenceOptions Options = {});

} // namespace stq::checker

#endif // STQ_CHECKER_INFERENCE_H
