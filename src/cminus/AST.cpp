//===- AST.cpp ------------------------------------------------------------===//

#include "cminus/AST.h"

using namespace stq::cminus;

const StructDef::Field *StructDef::findField(
    std::string_view FieldName) const {
  for (const Field &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

const char *stq::cminus::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::LAnd:
    return "&&";
  case BinaryOp::LOr:
    return "||";
  }
  return "?";
}

const char *stq::cminus::unaryOpSpelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::Not:
    return "!";
  case UnaryOp::BitNot:
    return "~";
  }
  return "?";
}

FuncDecl *Program::findFunction(std::string_view Name) const {
  for (FuncDecl *F : Functions)
    if (F->Name == Name)
      return F;
  return nullptr;
}

StructDef *Program::findStruct(std::string_view Name) const {
  for (StructDef *S : Structs)
    if (S->Name == Name)
      return S;
  return nullptr;
}
