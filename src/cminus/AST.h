//===- AST.h - C-minus abstract syntax --------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-minus AST. After the CIL-style lowering pass (Lowering.h) the AST
/// obeys the paper's intermediate-language discipline: expressions are
/// side-effect-free, l-values are a distinguished category, and calls appear
/// only as instructions (a call statement or the direct right-hand side of
/// an assignment/initialization). The qualifier checker and the soundness
/// axioms both consume this lowered form.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_AST_H
#define STQ_CMINUS_AST_H

#include "cminus/Type.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace stq::cminus {

class Expr;
class Stmt;
class BlockStmt;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A struct definition with named, typed fields.
class StructDef {
public:
  struct Field {
    std::string_view Name;
    TypePtr Ty;
  };

  StructDef(std::string_view Name, SourceLoc Loc) : Name(Name), Loc(Loc) {}

  std::string_view Name;
  std::span<Field> Fields;
  SourceLoc Loc;

  /// Returns the field named \p FieldName, or nullptr.
  const Field *findField(std::string_view FieldName) const;
};

/// A variable declaration: global, local, or parameter. The declared type
/// retains every user-written qualifier (value and reference).
class VarDecl {
public:
  VarDecl(std::string_view Name, TypePtr Ty, SourceLoc Loc, unsigned Id)
      : Name(Name), DeclaredTy(Ty), Loc(Loc), Id(Id) {}

  std::string_view Name;
  TypePtr DeclaredTy;
  /// Optional initializer (may be a call; treated as an assignment
  /// instruction by the checker).
  Expr *Init = nullptr;
  bool IsGlobal = false;
  bool IsParam = false;
  SourceLoc Loc;
  /// Dense id unique within one Program; used for memoization keys.
  unsigned Id;
};

/// A function declaration or definition.
class FuncDecl {
public:
  FuncDecl(std::string_view Name, TypePtr RetTy, SourceLoc Loc)
      : Name(Name), RetTy(RetTy), Loc(Loc) {}

  std::string_view Name;
  TypePtr RetTy;
  std::span<VarDecl *> Params;
  bool Variadic = false;
  /// Null for prototypes.
  BlockStmt *Body = nullptr;
  SourceLoc Loc;

  bool isDefinition() const { return Body != nullptr; }
};

//===----------------------------------------------------------------------===//
// L-values
//===----------------------------------------------------------------------===//

/// An l-value: a variable or a memory dereference, optionally extended by a
/// field path (matching CIL's host+offset representation). `d->trans` is
/// Mem(read d) with path [trans]; `s.f` is Var(s) with path [f].
class LValue {
public:
  enum class Kind { Var, Mem };

  LValue(VarDecl *Var, SourceLoc Loc) : K(Kind::Var), Var(Var), Loc(Loc) {}
  LValue(Expr *Addr, SourceLoc Loc) : K(Kind::Mem), Addr(Addr), Loc(Loc) {}

  Kind getKind() const { return K; }
  bool isVar() const { return K == Kind::Var; }
  bool isMem() const { return K == Kind::Mem; }
  /// True if this is a bare variable with no field path.
  bool isBareVar() const { return isVar() && Fields.empty(); }

  Kind K;
  /// The variable, for Var l-values.
  VarDecl *Var = nullptr;
  /// The address expression, for Mem l-values.
  Expr *Addr = nullptr;
  /// Field path applied after the base (empty for plain variables/derefs).
  std::span<std::string_view> Fields;
  SourceLoc Loc;
  /// Declared type of the l-value, including reference qualifiers; set by
  /// Sema.
  TypePtr Ty = nullptr;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class UnaryOp : uint8_t { Neg, Not, BitNot };
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

/// Returns the C spelling of \p Op, e.g. "*" or "&&".
const char *binaryOpSpelling(BinaryOp Op);
const char *unaryOpSpelling(UnaryOp Op);

/// Base of the expression hierarchy. After lowering every Expr except a
/// direct-instruction CallExpr is side-effect-free.
class Expr {
public:
  enum class Kind {
    IntConst,
    StrConst,
    NullConst,
    LValRead,
    AddrOf,
    Unary,
    Binary,
    Cast,
    Call,
    SizeofType,
  };

  Kind getKind() const { return K; }

  SourceLoc Loc;
  /// Static type, set by Sema. For l-value reads this is the r-type
  /// (reference qualifiers stripped).
  TypePtr Ty = nullptr;
  /// Dense id unique within one Program; used for memoization keys.
  unsigned Id = 0;

protected:
  Expr(Kind K, SourceLoc Loc) : Loc(Loc), K(K) {}

private:
  Kind K;
};

/// An integer or character constant.
class IntConstExpr : public Expr {
public:
  IntConstExpr(int64_t Value, SourceLoc Loc)
      : Expr(Kind::IntConst, Loc), Value(Value) {}
  int64_t Value;
  static bool classof(const Expr *E) { return E->getKind() == Kind::IntConst; }
};

/// A string literal (type char*).
class StrConstExpr : public Expr {
public:
  StrConstExpr(std::string_view Value, SourceLoc Loc)
      : Expr(Kind::StrConst, Loc), Value(Value) {}
  std::string_view Value;
  static bool classof(const Expr *E) { return E->getKind() == Kind::StrConst; }
};

/// The NULL constant.
class NullConstExpr : public Expr {
public:
  explicit NullConstExpr(SourceLoc Loc) : Expr(Kind::NullConst, Loc) {}
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::NullConst;
  }
};

/// Reading an l-value (using it on the right-hand side).
class LValReadExpr : public Expr {
public:
  LValReadExpr(LValue *LV, SourceLoc Loc) : Expr(Kind::LValRead, Loc), LV(LV) {}
  LValue *LV;
  static bool classof(const Expr *E) { return E->getKind() == Kind::LValRead; }
};

/// Taking the address of an l-value.
class AddrOfExpr : public Expr {
public:
  AddrOfExpr(LValue *LV, SourceLoc Loc) : Expr(Kind::AddrOf, Loc), LV(LV) {}
  LValue *LV;
  static bool classof(const Expr *E) { return E->getKind() == Kind::AddrOf; }
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}
  UnaryOp Op;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }
};

/// An explicit cast `(type) e`. Casts to value-qualified types trigger
/// run-time check instrumentation (paper section 2.1.3).
class CastExpr : public Expr {
public:
  CastExpr(TypePtr Target, Expr *Sub, SourceLoc Loc)
      : Expr(Kind::Cast, Loc), Target(Target), Sub(Sub) {}
  TypePtr Target;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Cast; }
};

/// A call. After lowering, calls occur only as a CallStmt or as the direct
/// right-hand side of an assignment/initializer (possibly under one cast,
/// which is ignored for pattern-matching purposes, as in the paper).
class CallExpr : public Expr {
public:
  CallExpr(std::string_view CalleeName, std::span<Expr *> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), CalleeName(CalleeName), Args(Args) {}
  std::string_view CalleeName;
  std::span<Expr *> Args;
  /// Resolved by Sema; null for unknown externals.
  FuncDecl *Callee = nullptr;
  /// True for memory-allocation routines (malloc); these match the `new`
  /// pattern in qualifier definitions.
  bool IsAlloc = false;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }
};

/// `sizeof(type)`; evaluates to the logical size of the type.
class SizeofTypeExpr : public Expr {
public:
  SizeofTypeExpr(TypePtr Target, SourceLoc Loc)
      : Expr(Kind::SizeofType, Loc), Target(Target) {}
  TypePtr Target;
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::SizeofType;
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Block,
    Decl,
    Assign,
    CallStmt,
    If,
    While,
    For,
    Return,
    Break,
    Continue,
  };

  Kind getKind() const { return K; }
  SourceLoc Loc;

protected:
  Stmt(Kind K, SourceLoc Loc) : Loc(Loc), K(K) {}

private:
  Kind K;
};

class BlockStmt : public Stmt {
public:
  explicit BlockStmt(SourceLoc Loc) : Stmt(Kind::Block, Loc) {}
  std::span<Stmt *> Stmts;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }
};

class DeclStmt : public Stmt {
public:
  DeclStmt(VarDecl *Var, SourceLoc Loc) : Stmt(Kind::Decl, Loc), Var(Var) {}
  VarDecl *Var;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Decl; }
};

class AssignStmt : public Stmt {
public:
  AssignStmt(LValue *LHS, Expr *RHS, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), LHS(LHS), RHS(RHS) {}
  LValue *LHS;
  Expr *RHS;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }
};

class CallStmt : public Stmt {
public:
  CallStmt(CallExpr *Call, SourceLoc Loc)
      : Stmt(Kind::CallStmt, Loc), Call(Call) {}
  CallExpr *Call;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::CallStmt; }
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; // may be null
  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *Cond;
  Stmt *Body;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }
};

/// A `for` loop; desugared to while by the lowering pass.
class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Stmt *Step, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step), Body(Body) {}
  Stmt *Init; // may be null
  Expr *Cond; // may be null (treated as true)
  Stmt *Step; // may be null
  Stmt *Body;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}
  Expr *Value; // may be null
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Continue; }
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// Owns every AST node and every type of one translation unit. All of
/// them, and everything they point to (names, field paths, child lists),
/// are allocated from one arena whose chunks grow geometrically from a
/// small first one; nodes are trivially destructible and are never visited
/// on teardown, so destroying the context frees a handful of chunks.
/// Nothing taken from a context may outlive it.
class ASTContext {
public:
  ASTContext() : Types(Arena) {}
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  template <typename T, typename... Args> T *createExpr(Args &&...A) {
    T *Node = make<T>(std::forward<Args>(A)...);
    Node->Id = static_cast<unsigned>(Exprs.size());
    Exprs.push_back(Node);
    return Node;
  }

  LValue *createLValue(VarDecl *Var, SourceLoc Loc) {
    LValues.push_back(make<LValue>(Var, Loc));
    return LValues.back();
  }
  LValue *createLValue(Expr *Addr, SourceLoc Loc) {
    LValues.push_back(make<LValue>(Addr, Loc));
    return LValues.back();
  }

  template <typename T, typename... Args> T *createStmt(Args &&...A) {
    return make<T>(std::forward<Args>(A)...);
  }

  VarDecl *createVar(std::string_view Name, TypePtr Ty, SourceLoc Loc) {
    return make<VarDecl>(copyString(Name), Ty, Loc, NextVarId++);
  }

  FuncDecl *createFunc(std::string_view Name, TypePtr RetTy, SourceLoc Loc) {
    return make<FuncDecl>(copyString(Name), RetTy, Loc);
  }

  StructDef *createStruct(std::string_view Name, SourceLoc Loc) {
    return make<StructDef>(copyString(Name), Loc);
  }

  /// Copies \p S into the arena.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Mem = static_cast<char *>(Arena.allocate(S.size(), 1));
    std::copy(S.begin(), S.end(), Mem);
    return {Mem, S.size()};
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<T> copyArray(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Items.empty())
      return {};
    T *Mem = static_cast<T *>(Arena.allocate(Items.size() * sizeof(T),
                                             alignof(T)));
    std::uninitialized_copy(Items.begin(), Items.end(), Mem);
    return {Mem, Items.size()};
  }

  /// The context every type of this unit is interned in.
  TypeContext &types() { return Types; }

  unsigned numExprs() const { return static_cast<unsigned>(Exprs.size()); }

  /// Clears every computed type so Sema can be re-run after a tool mutates
  /// declared types (the annotation driver's iterative loop).
  void resetComputedTypes() {
    for (Expr *E : Exprs)
      E->Ty = nullptr;
    for (LValue *LV : LValues)
      LV->Ty = nullptr;
  }

private:
  template <typename T, typename... Args> T *make(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena nodes are never destroyed");
    return new (Arena.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(A)...);
  }

  // Declared first: everything below points into it.
  std::pmr::monotonic_buffer_resource Arena;
  TypeContext Types;
  /// Every expression (indexed by Expr::Id) and l-value, for
  /// resetComputedTypes; the nodes themselves live in the arena.
  std::vector<Expr *> Exprs;
  std::vector<LValue *> LValues;
  unsigned NextVarId = 0;
};

/// One parsed translation unit.
class Program {
public:
  ASTContext Ctx;
  std::vector<StructDef *> Structs;
  std::vector<VarDecl *> Globals;
  std::vector<FuncDecl *> Functions;

  TypeContext &types() { return Ctx.types(); }

  FuncDecl *findFunction(std::string_view Name) const;
  StructDef *findStruct(std::string_view Name) const;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_AST_H
