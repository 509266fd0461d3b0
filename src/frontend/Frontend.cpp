//===- Frontend.cpp -------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"
#include "cminus/Type.h"

#include <string_view>
#include <unordered_map>

using namespace stq;
using namespace stq::frontend;

TUnit stq::frontend::compileUnit(const std::string &Name,
                                 const std::string &Text,
                                 const CompileOptions &Opts,
                                 DiagnosticEngine &Diags) {
  TUnit U;
  U.Name = Name;
  static const pp::FileMap EmptyMap;
  pp::DiskResolver Disk;
  pp::MemoryResolver Shipped(Opts.Files ? *Opts.Files : EmptyMap);
  pp::FileResolver *R = Opts.Files ? static_cast<pp::FileResolver *>(&Shipped)
                                   : &Disk;
  U.Pp = pp::preprocess(Name, Text, *R, Opts.Pp, Diags);
  if (!U.Pp.Ok)
    return U;
  U.Program = cminus::parseProgram(U.Pp.Text, Opts.QualNames, Diags);
  if (!U.Program || Diags.hasErrors())
    return U;
  if (!cminus::runSema(*U.Program, Opts.RefQualNames, Diags))
    return U;
  if (!cminus::lowerProgram(*U.Program, Diags) ||
      !cminus::verifyLoweredProgram(*U.Program, Diags))
    return U;
  U.FrontEndOk = true;
  return U;
}

namespace {

/// Appends the include-chain / macro-expansion notes for a line described
/// by \p Info to \p Out (innermost includer first, matching the
/// preprocessor's own rendering).
void appendLocationNotes(std::vector<Diagnostic> &Out, const pp::LineMap &Map,
                         const pp::LineInfo &Info) {
  auto note = [&](std::string Message) {
    Diagnostic &N = Out.emplace_back();
    N.Severity = DiagSeverity::Note;
    N.Phase = "frontend";
    N.Message = std::move(Message);
  };
  if (!Info.Macro.empty())
    note("in expansion of macro '" + Info.Macro +
         "' (column is post-expansion)");
  const std::vector<pp::IncludeFrame> &Stack = Map.stack(Info);
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    note("in file included from " + It->File + ":" + std::to_string(It->Line));
}

} // namespace

void stq::frontend::remapDiagnostics(std::vector<Diagnostic> &Diags,
                                     size_t From, const std::string &MainFile,
                                     const pp::LineMap &Map) {
  // One pass onto a new vector: each remapped diagnostic is followed by
  // its notes, so nothing is inserted mid-vector.
  std::vector<Diagnostic> Out;
  Out.reserve(Diags.size());
  for (size_t I = 0; I < Diags.size(); ++I) {
    Diagnostic &D = Out.emplace_back(std::move(Diags[I]));
    if (I < From || !D.File.empty())
      continue; // Already attributed (the preprocessor's own).
    if (!D.Loc.isValid()) {
      // Attachment notes stay bare; unit-level messages name the TU.
      if (D.Severity != DiagSeverity::Note)
        D.File = MainFile;
      continue;
    }
    const pp::LineInfo *Info = Map.info(D.Loc.Line);
    if (!Info) {
      D.File = MainFile;
      continue;
    }
    D.File = Map.file(*Info);
    D.Loc = SourceLoc(Info->PhysLine, D.Loc.Col);
    appendLocationNotes(Out, Map, *Info);
  }
  Diags = std::move(Out);
}

namespace {

/// One linked symbol's first sighting. The pointers reference the TUs'
/// Programs and names, which outlive the link step.
template <typename Decl> struct SymInfo {
  const Decl *First = nullptr;        ///< The first declaration seen.
  const std::string *TU = nullptr;    ///< Input file that first introduced it.
  const std::string *DefTU = nullptr; ///< Input file that *defined* it.
};

/// The declaration's user-facing location: file + physical line via the
/// TU's line map, falling back to the TU name.
void attribute(Diagnostic &D, const TUnit &U, SourceLoc Loc) {
  if (const pp::LineInfo *Info = U.Pp.Map.info(Loc.Line)) {
    D.File = U.Pp.Map.file(*Info);
    D.Loc = SourceLoc(Info->PhysLine, Loc.Col);
    return;
  }
  D.File = U.Name;
  D.Loc = Loc;
}

void linkError(DiagnosticEngine &Diags, const TUnit &U, SourceLoc Loc,
               std::string Message) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Phase = "link";
  D.Message = std::move(Message);
  attribute(D, U, Loc);
  Diags.report(std::move(D));
}

bool sameStruct(const cminus::StructDef &A, const cminus::StructDef &B) {
  if (A.Fields.size() != B.Fields.size())
    return false;
  for (size_t I = 0; I < A.Fields.size(); ++I)
    if (A.Fields[I].Name != B.Fields[I].Name ||
        !cminus::Type::equals(A.Fields[I].Ty, B.Fields[I].Ty))
      return false;
  return true;
}

std::string structSig(const cminus::StructDef &S) {
  std::string Sig = "{";
  for (const auto &F : S.Fields) {
    Sig += " " + F.Ty->str() + " ";
    Sig += F.Name;
    Sig += ";";
  }
  return Sig + " }";
}

std::string quoted(std::string_view Name) {
  std::string Out = "'";
  Out += Name;
  return Out + "'";
}

} // namespace

bool stq::frontend::sameSignature(const cminus::FuncDecl &A,
                                  const cminus::FuncDecl &B) {
  if (A.Variadic != B.Variadic || A.Params.size() != B.Params.size() ||
      !cminus::Type::equals(A.RetTy, B.RetTy))
    return false;
  for (size_t I = 0; I < A.Params.size(); ++I)
    if (!cminus::Type::equals(A.Params[I]->DeclaredTy,
                              B.Params[I]->DeclaredTy))
      return false;
  return true;
}

std::string stq::frontend::signatureOf(const cminus::FuncDecl &F) {
  std::string Sig = F.RetTy->str() + " (";
  for (size_t I = 0; I < F.Params.size(); ++I) {
    if (I)
      Sig += ", ";
    Sig += F.Params[I]->DeclaredTy->str();
  }
  if (F.Variadic)
    Sig += F.Params.empty() ? "..." : ", ...";
  Sig += ")";
  if (F.Variadic)
    Sig += ", ...";
  return Sig;
}

bool stq::frontend::linkUnits(const std::vector<TUnit> &TUs,
                              DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  // Declarations are compared structurally; a signature is rendered only
  // for a diagnostic.
  std::unordered_map<std::string_view, SymInfo<cminus::FuncDecl>> Functions;
  std::unordered_map<std::string_view, SymInfo<cminus::VarDecl>> Globals;
  std::unordered_map<std::string_view, SymInfo<cminus::StructDef>> Structs;

  for (const TUnit &U : TUs) {
    if (!U.Program)
      continue;

    for (const cminus::StructDef *S : U.Program->Structs) {
      auto [It, Inserted] = Structs.try_emplace(S->Name);
      auto &Sym = It->second;
      if (Inserted) {
        Sym = {S, &U.Name, &U.Name};
        continue;
      }
      if (!sameStruct(*Sym.First, *S))
        linkError(Diags, U, S->Loc,
                  "conflicting definitions of struct " + quoted(S->Name) +
                      ": '" + structSig(*Sym.First) + "' (" + *Sym.TU +
                      ") vs '" + structSig(*S) + "' (" + U.Name + ")");
    }

    for (const cminus::VarDecl *G : U.Program->Globals) {
      auto [It, Inserted] = Globals.try_emplace(G->Name);
      auto &Sym = It->second;
      if (Inserted) {
        Sym = {G, &U.Name, &U.Name};
        continue;
      }
      // C-minus has no `extern`: every global is a definition, so a
      // shared global must live in exactly one TU.
      linkError(Diags, U, G->Loc,
                cminus::Type::equals(Sym.First->DeclaredTy, G->DeclaredTy)
                    ? "duplicate definition of global " + quoted(G->Name) +
                          " (already defined in " + *Sym.DefTU + ")"
                    : "conflicting definitions of global " + quoted(G->Name) +
                          ": '" + Sym.First->DeclaredTy->str() + "' (" +
                          *Sym.DefTU + ") vs '" + G->DeclaredTy->str() +
                          "' (" + U.Name + ")");
    }

    for (const cminus::FuncDecl *F : U.Program->Functions) {
      auto [It, Inserted] = Functions.try_emplace(F->Name);
      auto &Sym = It->second;
      if (Inserted) {
        Sym = {F, &U.Name, F->isDefinition() ? &U.Name : nullptr};
        continue;
      }
      if (!sameSignature(*Sym.First, *F)) {
        // The load-bearing link diagnostic: a caller compiled against a
        // prototype whose qualifiers disagree with another TU's view
        // would silently subvert the checker's guarantees.
        linkError(Diags, U, F->Loc,
                  "qualifier signature mismatch for function " +
                      quoted(F->Name) + ": '" + signatureOf(*Sym.First) +
                      "' (" + *Sym.TU + ") vs '" + signatureOf(*F) + "' (" +
                      U.Name + ")");
        continue;
      }
      if (F->isDefinition()) {
        if (Sym.DefTU)
          linkError(Diags, U, F->Loc,
                    "duplicate definition of function " + quoted(F->Name) +
                        " (already defined in " + *Sym.DefTU + ")");
        else
          Sym.DefTU = &U.Name;
      }
    }
  }
  return Diags.errorCount() == Before;
}
