//===- Inference.cpp ------------------------------------------------------===//

#include "checker/Inference.h"

#include "checker/ConstraintGraph.h"
#include "cminus/Lowering.h"

#include <vector>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;
InferenceOutcome stq::checker::inferQualifiers(Program &Prog,
                                               const qual::QualifierSet &Quals,
                                               InferenceOptions Options) {
  InferenceOutcome Out;
  // The shared unit collector (ConstraintGraph.h) merged in unit order
  // reproduces this engine's historical sequential edge and roster order.
  UnitFlows Flows = collectAllFlows(Prog);

  // Variables with at least one flow edge are inference subjects; a
  // variable nothing ever flows into keeps only its declared qualifiers.
  std::set<const VarDecl *> HasFlow;
  for (const FlowEdge &E : Flows.Edges)
    HasFlow.insert(E.Target);
  std::set<const VarDecl *> AddrTaken(Flows.AddrTaken.begin(),
                                      Flows.AddrTaken.end());

  // Optimistic start: every applicable value qualifier on every subject.
  // Address-taken variables are excluded: qualifiers are invariant below
  // pointers, so a fresh annotation would retype every `&v` use.
  std::map<const VarDecl *, std::set<std::string>> Assumed;
  for (const VarDecl *Var : Flows.Vars) {
    if (!HasFlow.count(Var) || AddrTaken.count(Var))
      continue;
    if (Options.LocalsOnly && Var->IsGlobal)
      continue;
    for (const qual::QualifierDef &Q : Quals.all()) {
      if (Q.IsRef || !Q.Invariant)
        continue; // Flow qualifiers are not useful to infer.
      if (Q.SubjectTy.matches(Var->DeclaredTy))
        Assumed[Var].insert(Q.Name);
    }
  }

  // Greatest fixpoint: drop a qualifier whenever some flow into the
  // variable cannot be given it under the current assumptions.
  DiagnosticEngine Scratch;
  for (bool Changed = true; Changed;) {
    ++Out.Iterations;
    CheckerOptions CO;
    CO.AssumedVarQuals = &Assumed;
    QualChecker Checker(Prog, Quals, Scratch, CO);
    Changed = false;
    for (const FlowEdge &E : Flows.Edges) {
      auto Found = Assumed.find(E.Target);
      if (Found == Assumed.end() || Found->second.empty())
        continue;
      std::vector<std::string> Drop;
      for (const std::string &Q : Found->second)
        if (!Checker.hasQualifier(E.RHS, Q))
          Drop.push_back(Q);
      for (const std::string &Q : Drop) {
        Found->second.erase(Q);
        Changed = true;
      }
    }
  }

  // Report only qualifiers not already declared.
  for (auto &[Var, Set] : Assumed) {
    std::set<std::string> Fresh;
    for (const std::string &Q : Set)
      if (!Var->DeclaredTy->hasQual(Q))
        Fresh.insert(Q);
    if (!Fresh.empty())
      Out.Inferred.emplace(Var, std::move(Fresh));
  }
  return Out;
}
