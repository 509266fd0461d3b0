//===- Frontend.cpp -------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"
#include "cminus/Type.h"

#include <map>

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

/// One linked symbol's first sighting.
struct SymInfo {
  std::string Sig;   ///< Full qualified type spelling.
  std::string TU;    ///< Input file that first introduced it.
  std::string DefTU; ///< Input file that *defined* it (functions/globals).
  bool Defined = false;
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

std::string funcSig(const cminus::FuncDecl &F) {
  std::string Sig = F.type()->str();
  if (F.Variadic)
    Sig += ", ...";
  return Sig;
}

std::string structSig(const cminus::StructDef &S) {
  std::string Sig = "{";
  for (const auto &F : S.Fields)
    Sig += " " + F.Ty->str() + " " + F.Name + ";";
  return Sig + " }";
}

} // namespace

bool stq::frontend::linkUnits(const std::vector<TUnit> &TUs,
                              DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  std::map<std::string, SymInfo> Functions, Globals, Structs;

  for (const TUnit &U : TUs) {
    if (!U.Program)
      continue;

    for (const cminus::StructDef *S : U.Program->Structs) {
      std::string Sig = structSig(*S);
      auto [It, Inserted] = Structs.try_emplace(S->Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {Sig, U.Name, U.Name, true};
        continue;
      }
      if (Sym.Sig != Sig)
        linkError(Diags, U, S->Loc,
                  "conflicting definitions of struct '" + S->Name + "': '" +
                      Sym.Sig + "' (" + Sym.TU + ") vs '" + Sig + "' (" +
                      U.Name + ")");
    }

    for (const cminus::VarDecl *G : U.Program->Globals) {
      std::string Sig = G->DeclaredTy->str();
      auto [It, Inserted] = Globals.try_emplace(G->Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {Sig, U.Name, U.Name, true};
        continue;
      }
      // C-minus has no `extern`: every global is a definition, so a
      // shared global must live in exactly one TU.
      linkError(Diags, U, G->Loc,
                Sym.Sig == Sig
                    ? "duplicate definition of global '" + G->Name +
                          "' (already defined in " + Sym.DefTU + ")"
                    : "conflicting definitions of global '" + G->Name +
                          "': '" + Sym.Sig + "' (" + Sym.DefTU + ") vs '" +
                          Sig + "' (" + U.Name + ")");
    }

    for (const cminus::FuncDecl *F : U.Program->Functions) {
      std::string Sig = funcSig(*F);
      auto [It, Inserted] = Functions.try_emplace(F->Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {Sig, U.Name, F->isDefinition() ? U.Name : "",
               F->isDefinition()};
        continue;
      }
      if (Sym.Sig != Sig) {
        // The load-bearing link diagnostic: a caller compiled against a
        // prototype whose qualifiers disagree with another TU's view
        // would silently subvert the checker's guarantees.
        linkError(Diags, U, F->Loc,
                  "qualifier signature mismatch for function '" + F->Name +
                      "': '" + Sym.Sig + "' (" + Sym.TU + ") vs '" + Sig +
                      "' (" + U.Name + ")");
        continue;
      }
      if (F->isDefinition()) {
        if (Sym.Defined)
          linkError(Diags, U, F->Loc,
                    "duplicate definition of function '" + F->Name +
                        "' (already defined in " + Sym.DefTU + ")");
        Sym.Defined = true;
        if (Sym.DefTU.empty())
          Sym.DefTU = U.Name;
      }
    }
  }
  return Diags.errorCount() == Before;
}
