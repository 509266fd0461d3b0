//===- ConstraintGraph.h - Inference flow collection -----------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow collection for qualifier inference: one edge per flow into a
/// variable (assignment, initializer, or call argument), plus each
/// unit's variable roster and address-taken set.
///
/// Collection is shardable: `collectUnitFlows` produces the flow edges of
/// one unit (unit 0 is the globals; unit 1+i is function i, parameters plus
/// body) so generation fans out on the ThreadPool, and merging the units in
/// index order reproduces the exact edge order a sequential walk yields.
/// The constraint solve over these edges lives in ConstraintInference.cpp;
/// the sequential reference in Inference.cpp walks the same edges.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_CONSTRAINTGRAPH_H
#define STQ_CHECKER_CONSTRAINTGRAPH_H

#include "cminus/AST.h"

#include <vector>

namespace stq::checker {

/// One flow into a variable: an explicit assignment, an initializer, or a
/// call argument binding a parameter.
struct FlowEdge {
  const cminus::VarDecl *Target = nullptr;
  const cminus::Expr *RHS = nullptr;
};

/// Flow edges and variable roster of one shardable generation unit.
struct UnitFlows {
  std::vector<FlowEdge> Edges;
  std::vector<const cminus::VarDecl *> Vars;
  /// Variables whose address is taken somewhere in the unit. Qualifiers
  /// are invariant below pointers, so inferring a new qualifier on an
  /// address-taken variable would retype every `&v` and break re-checking;
  /// the solve and the reference both exclude these from seeding.
  std::vector<const cminus::VarDecl *> AddrTaken;
};

/// Number of generation units: 1 (globals) + one per function.
unsigned flowUnitCount(const cminus::Program &Prog);

/// Collects unit \p Unit's flows. Unit 0: global roster + initializer
/// edges. Unit 1+i: function i's parameter roster, plus local roster and
/// assignment/initializer/call-argument edges when it is a definition.
/// Call-argument edges may target another unit's parameters.
void collectUnitFlows(const cminus::Program &Prog, unsigned Unit,
                      UnitFlows &Out);

/// Collects every unit sequentially and merges in unit order (the
/// sequential reference engine's view of the program).
UnitFlows collectAllFlows(const cminus::Program &Prog);

/// Appends every variable read anywhere inside \p E (the conservative
/// dependency set of a constraint on its right-hand side).
void collectReadVars(const cminus::Expr *E,
                     std::vector<const cminus::VarDecl *> &Out);

} // namespace stq::checker

#endif // STQ_CHECKER_CONSTRAINTGRAPH_H
