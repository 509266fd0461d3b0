//===- Printer.cpp --------------------------------------------------------===//

#include "cminus/Printer.h"

#include <sstream>

using namespace stq;
using namespace stq::cminus;

namespace {

/// Escapes a string for emission inside double quotes.
std::string escapeString(std::string_view S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\0':
      Out += "\\0";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string indentStr(unsigned Indent) { return std::string(Indent * 2, ' '); }

/// Precedence levels for parenthesization; larger binds tighter.
int precedenceOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::LOr:
    return 1;
  case BinaryOp::LAnd:
    return 2;
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return 3;
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return 4;
  case BinaryOp::Add:
  case BinaryOp::Sub:
    return 5;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
    return 6;
  }
  return 0;
}

std::string printExprPrec(const Expr *E, int ParentPrec);

std::string printLValueImpl(const LValue *LV) {
  std::string Out;
  if (LV->isVar()) {
    Out = LV->Var->Name;
  } else {
    Out = "*" + printExprPrec(LV->Addr, 7);
  }
  bool First = true;
  for (std::string_view Field : LV->Fields) {
    if (First && LV->isMem()) {
      // Prefer the arrow form: *e with a field path prints as e->f.
      Out = printExprPrec(LV->Addr, 7) + "->";
    } else {
      Out += ".";
    }
    Out += Field;
    First = false;
  }
  return Out;
}

std::string printExprPrec(const Expr *E, int ParentPrec) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
    return std::to_string(cast<IntConstExpr>(E)->Value);
  case Expr::Kind::StrConst:
    return "\"" + escapeString(cast<StrConstExpr>(E)->Value) + "\"";
  case Expr::Kind::NullConst:
    return "NULL";
  case Expr::Kind::LValRead:
    return printLValueImpl(cast<LValReadExpr>(E)->LV);
  case Expr::Kind::AddrOf:
    return "&" + printLValueImpl(cast<AddrOfExpr>(E)->LV);
  case Expr::Kind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    return std::string(unaryOpSpelling(Un->Op)) +
           printExprPrec(Un->Sub, 7);
  }
  case Expr::Kind::Binary: {
    auto *Bin = cast<BinaryExpr>(E);
    int Prec = precedenceOf(Bin->Op);
    std::string Out = printExprPrec(Bin->LHS, Prec) + " " +
                      binaryOpSpelling(Bin->Op) + " " +
                      printExprPrec(Bin->RHS, Prec + 1);
    if (Prec < ParentPrec)
      return "(" + Out + ")";
    return Out;
  }
  case Expr::Kind::Cast: {
    auto *Cast_ = cast<CastExpr>(E);
    return "(" + Cast_->Target->str() + ") " + printExprPrec(Cast_->Sub, 7);
  }
  case Expr::Kind::Call: {
    auto *Call = cast<CallExpr>(E);
    std::string Out(Call->CalleeName);
    Out += "(";
    for (size_t I = 0; I < Call->Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExprPrec(Call->Args[I], 0);
    }
    return Out + ")";
  }
  case Expr::Kind::SizeofType:
    return "sizeof(" + cast<SizeofTypeExpr>(E)->Target->str() + ")";
  }
  return "<?>";
}

void printStmtTo(std::ostringstream &OS, const Stmt *S, unsigned Indent);

void printBlockBody(std::ostringstream &OS, const BlockStmt *Block,
                    unsigned Indent) {
  OS << "{\n";
  for (const Stmt *Sub : Block->Stmts)
    printStmtTo(OS, Sub, Indent + 1);
  OS << indentStr(Indent) << "}";
}

void printStmtTo(std::ostringstream &OS, const Stmt *S, unsigned Indent) {
  if (!S)
    return;
  OS << indentStr(Indent);
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    printBlockBody(OS, cast<BlockStmt>(S), Indent);
    OS << "\n";
    return;
  case Stmt::Kind::Decl: {
    const VarDecl *Var = cast<DeclStmt>(S)->Var;
    OS << Var->DeclaredTy->str() << " " << Var->Name;
    if (Var->Init)
      OS << " = " << printExprPrec(Var->Init, 0);
    OS << ";\n";
    return;
  }
  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    OS << printLValueImpl(Assign->LHS) << " = "
       << printExprPrec(Assign->RHS, 0) << ";\n";
    return;
  }
  case Stmt::Kind::CallStmt:
    OS << printExprPrec(cast<CallStmt>(S)->Call, 0) << ";\n";
    return;
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    OS << "if (" << printExprPrec(If->Cond, 0) << ")\n";
    printStmtTo(OS, If->Then, Indent + 1);
    if (If->Else) {
      OS << indentStr(Indent) << "else\n";
      printStmtTo(OS, If->Else, Indent + 1);
    }
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    OS << "while (" << printExprPrec(While->Cond, 0) << ")\n";
    printStmtTo(OS, While->Body, Indent + 1);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    OS << "for (";
    // Header statements render inline, without their trailing ";\n".
    auto InlineStmt = [&](const Stmt *H) {
      if (!H)
        return;
      if (const auto *Decl = dyn_cast<DeclStmt>(H)) {
        OS << Decl->Var->DeclaredTy->str() << " " << Decl->Var->Name;
        if (Decl->Var->Init)
          OS << " = " << printExprPrec(Decl->Var->Init, 0);
        return;
      }
      if (const auto *Assign = dyn_cast<AssignStmt>(H)) {
        OS << printLValueImpl(Assign->LHS) << " = "
           << printExprPrec(Assign->RHS, 0);
        return;
      }
      if (const auto *CS = dyn_cast<CallStmt>(H))
        OS << printExprPrec(CS->Call, 0);
    };
    InlineStmt(For->Init);
    OS << "; ";
    if (For->Cond)
      OS << printExprPrec(For->Cond, 0);
    OS << "; ";
    InlineStmt(For->Step);
    OS << ")\n";
    printStmtTo(OS, For->Body, Indent + 1);
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    OS << "return";
    if (Ret->Value)
      OS << " " << printExprPrec(Ret->Value, 0);
    OS << ";\n";
    return;
  }
  case Stmt::Kind::Break:
    OS << "break;\n";
    return;
  case Stmt::Kind::Continue:
    OS << "continue;\n";
    return;
  }
}

} // namespace

std::string stq::cminus::printExpr(const Expr *E) {
  return printExprPrec(E, 0);
}

std::string stq::cminus::printLValue(const LValue *LV) {
  return printLValueImpl(LV);
}

std::string stq::cminus::printStmt(const Stmt *S, unsigned Indent) {
  std::ostringstream OS;
  printStmtTo(OS, S, Indent);
  return OS.str();
}

std::string stq::cminus::printProgram(const Program &Prog) {
  std::ostringstream OS;
  for (const StructDef *Def : Prog.Structs) {
    OS << "struct " << Def->Name << " {\n";
    for (const StructDef::Field &F : Def->Fields)
      OS << "  " << F.Ty->str() << " " << F.Name << ";\n";
    OS << "};\n\n";
  }
  for (const VarDecl *G : Prog.Globals) {
    OS << G->DeclaredTy->str() << " " << G->Name;
    if (G->Init)
      OS << " = " << printExpr(G->Init);
    OS << ";\n";
  }
  if (!Prog.Globals.empty())
    OS << "\n";
  for (const FuncDecl *Fn : Prog.Functions) {
    OS << Fn->RetTy->str() << " " << Fn->Name << "(";
    for (size_t I = 0; I < Fn->Params.size(); ++I) {
      if (I)
        OS << ", ";
      OS << Fn->Params[I]->DeclaredTy->str();
      if (!Fn->Params[I]->Name.empty())
        OS << " " << Fn->Params[I]->Name;
    }
    if (Fn->Variadic)
      OS << (Fn->Params.empty() ? "..." : ", ...");
    OS << ")";
    if (!Fn->isDefinition()) {
      OS << ";\n\n";
      continue;
    }
    OS << " ";
    OS << printStmt(Fn->Body, 0);
  }
  return OS.str();
}
