//===- Compiler.cpp - Lowered C-minus -> register bytecode ----------------===//
//
// Lowers each function to a flat instruction stream over virtual registers.
// The translation is built around one invariant: executing the bytecode
// performs exactly the interpreter's observable actions — block
// allocations, memory reads/writes, traps, qualifier checks, audits,
// printf output and fuel spends — in exactly the interpreter's order.
//
// Fuel: the interpreter charges one unit at each expression, lvalue,
// statement and call-function entry. The compiler tracks those entries in
// `PendingFuel` and attaches the accumulated count to the next emitted
// instruction, which charges them one unit at a time before executing.
// Pending fuel may never be carried across a label that can also be
// reached by a jump (the jump path's fuel was already absorbed by the
// jump instruction), so the compiler flushes it with an explicit Tick on
// the fall-through path before binding such labels. It also may not be
// merged past a potentially-trapping or halting instruction — with one
// fuel unit left, spend-then-trap must exhaust differently from
// trap-then-spend — which the per-instruction charge-before-execute rule
// guarantees.
//
// Register discipline: compiling an expression allocates its result
// register at the current register top and leaves the top one past it;
// sub-expression temporaries above the result are released by resetting
// the top. Call arguments therefore land in consecutive registers.
//
//===----------------------------------------------------------------------===//

#include "cminus/Type.h"
#include "support/Casting.h"
#include "vm/VM.h"

#include <cassert>
#include <map>

using namespace stq;
using namespace stq::vm;
using namespace stq::cminus;

namespace {

class Compiler {
public:
  Compiler(const Program &Prog, const qual::QualifierSet &Quals,
           const std::vector<checker::RuntimeCastCheck> &Checks,
           ModuleCode &M)
      : Prog(Prog), Quals(Quals), M(M) {
    // Last check wins per cast site, matching the interpreter's CheckMap.
    for (const checker::RuntimeCastCheck &C : Checks)
      CheckMap[C.Cast] = C.Quals;
  }

  void compile(const std::string &EntryPoint) {
    for (const VarDecl *G : Prog.Globals) {
      GlobalIndex[G] = static_cast<uint32_t>(M.Globals.size());
      M.Globals.push_back(G);
      M.GlobalTemplates.push_back(internTemplate(G->DeclaredTy));
    }
    M.EntryName = EntryPoint;
    M.Fns.emplace_back(); // Fns[0]: synthetic startup.
    for (const FuncDecl *Fn : Prog.Functions)
      if (Fn->isDefinition()) {
        FnIndex[Fn] = static_cast<uint32_t>(M.Fns.size());
        M.Fns.emplace_back();
        M.Fns.back().Fn = Fn;
      }
    const FuncDecl *Entry = Prog.findFunction(EntryPoint);
    if (!Entry || !Entry->isDefinition()) {
      M.EntryMissing = true;
      return;
    }
    for (uint32_t I = 1; I < M.Fns.size(); ++I)
      compileFunction(I);
    compileStartup(Entry);
  }

private:
  const Program &Prog;
  const qual::QualifierSet &Quals;
  ModuleCode &M;
  std::map<const CastExpr *, std::vector<std::string>> CheckMap;

  std::map<const VarDecl *, uint32_t> GlobalIndex;
  std::map<const FuncDecl *, uint32_t> FnIndex;
  std::map<const Type *, uint32_t> TemplateIndex;
  std::map<const StrConstExpr *, uint32_t> StrIndex;
  std::map<std::string, uint32_t> MsgIndex;
  std::map<std::tuple<int, int64_t, uint32_t, int64_t>, uint32_t> ConstIndex;

  // Per-function state.
  FnCode *F = nullptr;
  std::map<const VarDecl *, uint32_t> LocalSlots;
  uint32_t PendingFuel = 0;
  uint32_t RegTop = 0;

  /// One enclosing statement context a break/continue/return can target.
  /// Loops catch break/continue; a For's Init and Step statements discard
  /// *every* control-flow escape (the interpreter ignores their Flow
  /// result), so `return` there only records the value and jumps on.
  struct Scope {
    bool Discard = false;
    int64_t ContTarget = -1; ///< Known continue target (while head).
    std::vector<size_t> BreakFix, ContFix, AllFix;
  };
  std::vector<Scope> Scopes;

  //===--------------------------------------------------------------------===
  // Module side tables
  //===--------------------------------------------------------------------===

  unsigned sizeOfType(const TypePtr &Ty) {
    TypePtr Bare = Type::withoutQuals(Ty);
    if (Bare->isStruct()) {
      const StructDef *Def = Prog.findStruct(Bare->structName());
      if (!Def)
        return 1;
      unsigned N = 0;
      for (const StructDef::Field &Fd : Def->Fields)
        N += sizeOfType(Fd.Ty);
      return N == 0 ? 1 : N;
    }
    return 1;
  }

  Value initialValueFor(const TypePtr &Ty) {
    TypePtr Bare = Type::withoutQuals(Ty);
    if (Bare->isPointer())
      return Value::makeNull();
    return Value::makeInt(0);
  }

  void initCells(std::vector<Value> &Cells, const TypePtr &Ty,
                 unsigned Base) {
    TypePtr Bare = Type::withoutQuals(Ty);
    if (Bare->isStruct()) {
      const StructDef *Def = Prog.findStruct(Bare->structName());
      if (!Def)
        return;
      unsigned Off = 0;
      for (const StructDef::Field &Fd : Def->Fields) {
        initCells(Cells, Fd.Ty, Base + Off);
        Off += sizeOfType(Fd.Ty);
      }
      return;
    }
    if (Base < Cells.size())
      Cells[Base] = initialValueFor(Ty);
  }

  /// Precomputed cell image of allocBlockForType(Ty).
  uint32_t internTemplate(const TypePtr &Ty) {
    auto [It, Inserted] = TemplateIndex.emplace(Ty, 0);
    if (!Inserted)
      return It->second;
    std::vector<Value> Cells(std::max(1u, sizeOfType(Ty)),
                             Value::makeInt(0));
    initCells(Cells, Ty, 0);
    It->second = static_cast<uint32_t>(M.Templates.size());
    M.Templates.push_back(std::move(Cells));
    return It->second;
  }

  uint32_t internString(const StrConstExpr *S) {
    auto [It, Inserted] =
        StrIndex.emplace(S, static_cast<uint32_t>(M.Strings.size()));
    if (Inserted)
      M.Strings.push_back(S);
    return It->second;
  }

  /// Deduplicated constant-pool index for \p V (Imm/BinaryImm payloads).
  uint32_t internConst(const Value &V) {
    auto Key = std::make_tuple(static_cast<int>(V.K), V.Int, V.Block, V.Off);
    auto [It, Inserted] =
        ConstIndex.emplace(Key, static_cast<uint32_t>(M.Consts.size()));
    if (Inserted)
      M.Consts.push_back(V);
    return It->second;
  }

  uint32_t internMsg(const std::string &Msg) {
    auto [It, Inserted] =
        MsgIndex.emplace(Msg, static_cast<uint32_t>(M.Msgs.size()));
    if (Inserted)
      M.Msgs.push_back(Msg);
    return It->second;
  }

  /// Recognize invariants of the shape `value(E) cmp <int literal|NULL>`
  /// (the common builtins: pos, neg, nonneg, nonzero, nonnull) and record
  /// a fast form the dispatch loop can check without walking the AST.
  /// Literal-on-the-left compares are normalized by flipping the operator.
  static void classifyFastInv(const qual::InvPred &Inv, GuardQual &GQ) {
    using qual::InvPred;
    using qual::InvTerm;
    if (Inv.K != InvPred::Kind::Compare)
      return;
    switch (Inv.CmpOp) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      break;
    default:
      return;
    }
    const InvTerm *Val = nullptr, *Lit = nullptr;
    bool Flip = false;
    if (Inv.A.K == InvTerm::Kind::ValueOf) {
      Val = &Inv.A;
      Lit = &Inv.B;
    } else if (Inv.B.K == InvTerm::Kind::ValueOf) {
      Val = &Inv.B;
      Lit = &Inv.A;
      Flip = true;
    }
    if (!Val)
      return;
    BinaryOp Op = Inv.CmpOp;
    if (Flip) {
      switch (Op) {
      case BinaryOp::Lt: Op = BinaryOp::Gt; break;
      case BinaryOp::Le: Op = BinaryOp::Ge; break;
      case BinaryOp::Gt: Op = BinaryOp::Lt; break;
      case BinaryOp::Ge: Op = BinaryOp::Le; break;
      default: break; // Eq/Ne are symmetric.
      }
    }
    if (Lit->K == InvTerm::Kind::Int) {
      GQ.Fast = FastInv::CmpInt;
      GQ.FastOp = Op;
      GQ.FastImm = Lit->Int;
    } else if (Lit->K == InvTerm::Kind::Null &&
               (Op == BinaryOp::Eq || Op == BinaryOp::Ne)) {
      GQ.Fast = FastInv::CmpNull;
      GQ.FastOp = Op;
    }
  }

  /// Qualifier checks of an instrumented cast (NoIndex when none apply).
  uint32_t guardIndex(const CastExpr *Cast) {
    auto Found = CheckMap.find(Cast);
    if (Found == CheckMap.end())
      return NoIndex;
    GuardSite Site;
    Site.Cast = Cast;
    Site.Loc = Cast->Loc;
    for (const std::string &Name : Found->second) {
      const qual::QualifierDef *Q = Quals.find(Name);
      if (!Q || !Q->Invariant)
        continue;
      GuardQual GQ;
      GQ.Name = Name;
      GQ.Inv = &*Q->Invariant;
      classifyFastInv(*GQ.Inv, GQ);
      Site.Quals.push_back(std::move(GQ));
    }
    if (Site.Quals.empty())
      return NoIndex;
    M.Guards.push_back(std::move(Site));
    return static_cast<uint32_t>(M.Guards.size() - 1);
  }

  /// Audited invariants of a store to a location of declared type \p Ty.
  uint32_t auditIndex(const TypePtr &Ty) {
    if (!Ty)
      return NoIndex;
    AuditSite Site;
    for (const std::string &Name : Ty->quals()) {
      const qual::QualifierDef *Q = Quals.find(Name);
      if (!Q || Q->IsRef || !Q->Invariant)
        continue;
      Site.Quals.emplace_back(Name, &*Q->Invariant);
    }
    if (Site.Quals.empty())
      return NoIndex;
    M.Audits.push_back(std::move(Site));
    return static_cast<uint32_t>(M.Audits.size() - 1);
  }

  //===--------------------------------------------------------------------===
  // Emission
  //===--------------------------------------------------------------------===

  size_t emit(Instr I) {
    I.Fuel = PendingFuel;
    PendingFuel = 0;
    F->Code.push_back(I);
    return F->Code.size() - 1;
  }

  /// Emits a fuel-only Tick when pending fuel must not leak across an
  /// upcoming label (loop heads, branch joins).
  void flushPending() {
    if (!PendingFuel)
      return;
    Instr T;
    T.K = Op::Tick;
    emit(T);
  }

  /// Emit a jump-if-false on \p Cond, fusing with an immediately
  /// preceding Binary/BinaryImm that produced it (loop and if conditions
  /// are almost always comparisons). The fused form still writes R[A],
  /// and jumps have no observable effect nor fuel of their own at these
  /// sites (PendingFuel is 0 after the condition's last instruction), so
  /// no charge moves across an observable boundary. Returns the
  /// instruction index to patch with the jump target.
  size_t emitFalseBranch(uint16_t Cond) {
    if (PendingFuel == 0 && !F->Code.empty()) {
      Instr &L = F->Code.back();
      if ((L.K == Op::Binary || L.K == Op::BinaryImm) && L.A == Cond) {
        L.K = L.K == Op::Binary ? Op::BinaryJmp : Op::BinaryImmJmp;
        return F->Code.size() - 1;
      }
    }
    Instr Br;
    Br.K = Op::JmpIfFalse;
    Br.A = Cond;
    return emit(Br);
  }

  size_t here() const { return F->Code.size(); }
  void patch(size_t At, size_t Target) {
    F->Code[At].Target = static_cast<int32_t>(Target);
  }

  uint16_t allocReg() {
    assert(RegTop < NoReg && "register file overflow");
    uint16_t R = static_cast<uint16_t>(RegTop++);
    F->NumRegs = std::max(F->NumRegs, RegTop);
    return R;
  }

  uint16_t localSlot(const VarDecl *V) {
    auto [It, Inserted] =
        LocalSlots.emplace(V, static_cast<uint32_t>(LocalSlots.size()));
    if (Inserted)
      F->SlotVars.push_back(V); // Slot -> decl, for unbound-var traps.
    F->NumSlots =
        std::max(F->NumSlots, static_cast<uint32_t>(LocalSlots.size()));
    return static_cast<uint16_t>(It->second);
  }

  void emitTrapMsg(SourceLoc At, const std::string &Msg) {
    Instr T;
    T.K = Op::TrapMsg;
    T.Extra = internMsg(Msg);
    T.At = At;
    emit(T);
  }

  //===--------------------------------------------------------------------===
  // L-values and expressions
  //===--------------------------------------------------------------------===

  /// Statically resolved field path: total offset, or the first error in
  /// interpreter order (the base instruction still executes first, so
  /// base traps — unbound variable, null deref — win, as they must).
  struct FieldRes {
    int64_t Off = 0;
    bool Error = false;
    std::string Msg;
  };

  FieldRes resolveFields(TypePtr CurTy, const LValue *LV) {
    FieldRes R;
    for (std::string_view Field : LV->Fields) {
      if (!CurTy)
        CurTy = Type::getInt();
      TypePtr Bare = Type::withoutQuals(CurTy);
      if (!Bare->isStruct()) {
        R.Error = true;
        R.Msg = "field access on non-struct value";
        return R;
      }
      const StructDef *Def = Prog.findStruct(Bare->structName());
      if (!Def) {
        R.Error = true;
        R.Msg = "unknown struct '" + Bare->structName() + "'";
        return R;
      }
      int64_t Off = 0;
      TypePtr FieldTy = nullptr;
      bool Found = false;
      for (const StructDef::Field &Fd : Def->Fields) {
        if (Fd.Name == Field) {
          FieldTy = Fd.Ty;
          Found = true;
          break;
        }
        Off += sizeOfType(Fd.Ty);
      }
      if (!Found) {
        R.Error = true;
        R.Msg = "struct '" + std::string(Def->Name) + "' has no field '" +
                std::string(Field) + "'";
        return R;
      }
      R.Off += Off;
      CurTy = FieldTy;
    }
    return R;
  }

  /// Leaves the address (a pointer value) in the returned register.
  uint16_t compileLValue(const LValue *LV) {
    ++PendingFuel; // evalLValue entry.
    if (LV->isVar()) {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::VarAddr;
      I.A = R;
      I.At = LV->Loc;
      auto Glob = GlobalIndex.find(LV->Var);
      if (Glob != GlobalIndex.end()) {
        I.Mode = AddrGlobal;
        I.Extra = Glob->second;
      } else {
        // Never-bound slots keep the 0 sentinel and trap at run time,
        // exactly when the interpreter's frame lookup misses.
        I.Mode = AddrLocal;
        I.Extra = localSlot(LV->Var);
      }
      FieldRes FR = resolveFields(LV->Var->DeclaredTy, LV);
      I.Off = static_cast<int32_t>(FR.Off);
      emit(I);
      if (FR.Error)
        emitTrapMsg(LV->Loc, FR.Msg);
      return R;
    }
    uint16_t R = compileExpr(LV->Addr);
    TypePtr AddrTy = LV->Addr->Ty;
    TypePtr CurTy =
        (AddrTy && AddrTy->isPointer()) ? AddrTy->pointee() : Type::getInt();
    FieldRes FR = resolveFields(CurTy, LV);
    Instr I;
    I.K = Op::DerefBase;
    I.A = R;
    I.B = R;
    I.Off = static_cast<int32_t>(FR.Off);
    I.At = LV->Loc;
    emit(I);
    if (FR.Error)
      emitTrapMsg(LV->Loc, FR.Msg);
    return R;
  }

  uint16_t compileCall(const CallExpr *Call) {
    uint16_t Dst = allocReg();
    uint16_t ArgBase = static_cast<uint16_t>(RegTop);
    for (const Expr *Arg : Call->Args)
      compileExpr(Arg);
    uint16_t Argc = static_cast<uint16_t>(Call->Args.size());
    // Callee dispatch is fully static, mirroring evalCall's cascade.
    if (Call->IsAlloc || Call->CalleeName == "malloc") {
      Instr I;
      I.K = Op::CallAlloc;
      I.A = Dst;
      I.B = ArgBase;
      I.C = Argc;
      emit(I);
    } else if (Call->CalleeName == "free" && !Call->Callee) {
      Instr I;
      I.K = Op::CallFree;
      I.A = Dst;
      I.B = ArgBase;
      I.C = Argc;
      emit(I);
    } else {
      const FuncDecl *Fn = Call->Callee;
      if (!Fn)
        Fn = Prog.findFunction(Call->CalleeName);
      if (Fn && Fn->isDefinition()) {
        ++PendingFuel; // callFunction entry.
        Instr I;
        I.K = Op::Call;
        I.A = Dst;
        I.B = ArgBase;
        I.C = Argc;
        I.Extra = FnIndex[Fn];
        I.At = Call->Loc;
        I.Mode = 1; // Audit parameter binds (entry call passes 0).
        emit(I);
      } else if (Call->CalleeName == "printf" ||
                 (Fn && Fn->Variadic && !Fn->Params.empty() &&
                  Type::withoutQuals(Fn->Params[0]->DeclaredTy)
                      ->isPointer())) {
        Instr I;
        I.K = Op::CallPrintf;
        I.A = Dst;
        I.B = ArgBase;
        I.C = Argc;
        I.At = Call->Loc;
        emit(I);
      } else {
        emitTrapMsg(Call->Loc, "call to undefined function '" +
                                   std::string(Call->CalleeName) + "'");
      }
    }
    RegTop = Dst + 1u;
    return Dst;
  }

  uint16_t compileExpr(const Expr *E) {
    ++PendingFuel; // evalExpr entry.
    switch (E->getKind()) {
    case Expr::Kind::IntConst: {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::Imm;
      I.A = R;
      I.Extra = internConst(Value::makeInt(cast<IntConstExpr>(E)->Value));
      emit(I);
      return R;
    }
    case Expr::Kind::NullConst: {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::Imm;
      I.A = R;
      I.Extra = internConst(Value::makeNull());
      emit(I);
      return R;
    }
    case Expr::Kind::StrConst: {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::StrPtr;
      I.A = R;
      I.Extra = internString(cast<StrConstExpr>(E));
      emit(I);
      return R;
    }
    case Expr::Kind::LValRead: {
      const LValue *LV = cast<LValReadExpr>(E)->LV;
      // Plain variable reads (the dominant expression form) fuse the
      // VarAddr+Load pair into one LoadVar. The fused instruction keeps
      // both instructions' fuel and runs the exact same trap cascade, so
      // it is observably identical; requiring the two source locations to
      // agree keeps trap bytes identical even for exotic AST shapes.
      if (LV->isVar() && LV->Loc == E->Loc) {
        FieldRes FR = resolveFields(LV->Var->DeclaredTy, LV);
        if (!FR.Error) {
          ++PendingFuel; // evalLValue entry.
          uint16_t R = allocReg();
          Instr I;
          I.K = Op::LoadVar;
          I.A = R;
          I.Off = static_cast<int32_t>(FR.Off);
          I.At = E->Loc;
          auto Glob = GlobalIndex.find(LV->Var);
          if (Glob != GlobalIndex.end()) {
            I.Mode = AddrGlobal;
            I.Extra = Glob->second;
          } else {
            I.Mode = AddrLocal;
            I.Extra = localSlot(LV->Var);
          }
          emit(I);
          return R;
        }
      }
      // Pointer-based reads fuse the DerefBase+Load pair the same way.
      if (!LV->isVar() && LV->Loc == E->Loc) {
        TypePtr AddrTy = LV->Addr->Ty;
        TypePtr CurTy = (AddrTy && AddrTy->isPointer()) ? AddrTy->pointee()
                                                        : Type::getInt();
        FieldRes FR = resolveFields(CurTy, LV);
        if (!FR.Error) {
          ++PendingFuel; // evalLValue entry.
          uint16_t R = compileExpr(LV->Addr);
          Instr I;
          I.K = Op::LoadInd;
          I.A = R;
          I.B = R;
          I.Off = static_cast<int32_t>(FR.Off);
          I.At = E->Loc;
          emit(I);
          return R;
        }
      }
      uint16_t R = compileLValue(LV);
      Instr I;
      I.K = Op::Load;
      I.A = R;
      I.B = R;
      I.At = E->Loc;
      emit(I);
      return R;
    }
    case Expr::Kind::AddrOf:
      return compileLValue(cast<AddrOfExpr>(E)->LV);
    case Expr::Kind::Unary: {
      const auto *Un = cast<UnaryExpr>(E);
      uint16_t R = compileExpr(Un->Sub);
      Instr I;
      I.K = Op::Unary;
      I.A = R;
      I.B = R;
      I.UOp = Un->Op;
      I.At = E->Loc;
      emit(I);
      return R;
    }
    case Expr::Kind::Binary: {
      const auto *Bin = cast<BinaryExpr>(E);
      if (Bin->Op == BinaryOp::LAnd || Bin->Op == BinaryOp::LOr) {
        bool IsAnd = Bin->Op == BinaryOp::LAnd;
        uint16_t L = compileExpr(Bin->LHS);
        Instr Br;
        Br.K = IsAnd ? Op::JmpIfFalse : Op::JmpIfTrue;
        Br.A = L;
        size_t BrAt = emit(Br);
        uint16_t R = compileExpr(Bin->RHS);
        Instr T;
        T.K = Op::Truthy;
        T.A = L;
        T.B = R;
        emit(T);
        Instr J;
        J.K = Op::Jmp;
        size_t JAt = emit(J);
        patch(BrAt, here());
        Instr Imm;
        Imm.K = Op::Imm;
        Imm.A = L;
        Imm.Extra = internConst(Value::makeInt(IsAnd ? 0 : 1));
        emit(Imm);
        patch(JAt, here());
        RegTop = L + 1u;
        return L;
      }
      // A constant right operand folds into the operation: the Imm that
      // would materialize it has no observable effect, so merging its
      // fuel into the fused instruction preserves exhaustion behavior.
      if (Bin->RHS->getKind() == Expr::Kind::IntConst ||
          Bin->RHS->getKind() == Expr::Kind::NullConst) {
        uint16_t L = compileExpr(Bin->LHS);
        ++PendingFuel; // evalExpr entry for the constant RHS.
        Instr I;
        I.K = Op::BinaryImm;
        I.A = L;
        I.B = L;
        I.Extra = internConst(
            Bin->RHS->getKind() == Expr::Kind::IntConst
                ? Value::makeInt(cast<IntConstExpr>(Bin->RHS)->Value)
                : Value::makeNull());
        I.BOp = Bin->Op;
        I.At = E->Loc;
        emit(I);
        RegTop = L + 1u;
        return L;
      }
      // A constant LEFT operand folds too when the operation commutes
      // (or is a comparison, which flips exactly under the total order).
      // The constant's fuel rides on the right operand's first
      // instruction — the same position the Imm held in the sequence.
      if (Bin->LHS->getKind() == Expr::Kind::IntConst) {
        BinaryOp Flipped = Bin->Op;
        bool CanFold = true;
        switch (Bin->Op) {
        case BinaryOp::Add:
        case BinaryOp::Mul:
        case BinaryOp::Eq:
        case BinaryOp::Ne:
          break;
        case BinaryOp::Lt: Flipped = BinaryOp::Gt; break;
        case BinaryOp::Le: Flipped = BinaryOp::Ge; break;
        case BinaryOp::Gt: Flipped = BinaryOp::Lt; break;
        case BinaryOp::Ge: Flipped = BinaryOp::Le; break;
        default:
          CanFold = false;
          break;
        }
        if (CanFold) {
          ++PendingFuel; // evalExpr entry for the constant LHS.
          uint16_t R = compileExpr(Bin->RHS);
          Instr I;
          I.K = Op::BinaryImm;
          I.A = R;
          I.B = R;
          I.Extra =
              internConst(Value::makeInt(cast<IntConstExpr>(Bin->LHS)->Value));
          I.BOp = Flipped;
          I.At = E->Loc;
          emit(I);
          RegTop = R + 1u;
          return R;
        }
      }
      uint16_t L = compileExpr(Bin->LHS);
      uint16_t R = compileExpr(Bin->RHS);
      Instr I;
      I.K = Op::Binary;
      I.A = L;
      I.B = L;
      I.C = R;
      I.BOp = Bin->Op;
      I.At = E->Loc;
      emit(I);
      RegTop = L + 1u;
      return L;
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      uint16_t R = compileExpr(C->Sub);
      uint32_t G = guardIndex(C);
      if (G != NoIndex) {
        Instr I;
        I.K = Op::Guard;
        I.A = R;
        I.Extra = G;
        I.At = C->Loc;
        emit(I);
      }
      return R;
    }
    case Expr::Kind::Call:
      return compileCall(cast<CallExpr>(E));
    case Expr::Kind::SizeofType: {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::Imm;
      I.A = R;
      I.Extra = internConst(
          Value::makeInt(sizeOfType(cast<SizeofTypeExpr>(E)->Target)));
      emit(I);
      return R;
    }
    }
    uint16_t R = allocReg();
    Instr I;
    I.K = Op::Imm;
    I.A = R;
    I.Extra = internConst(Value::makeInt(0));
    emit(I);
    return R;
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  void compileBreak() {
    Instr J;
    J.K = Op::Jmp;
    if (!Scopes.empty()) {
      Scope &S = Scopes.back();
      (S.Discard ? S.AllFix : S.BreakFix).push_back(emit(J));
      return;
    }
    // No enclosing loop: Flow::Break falls out of the function body,
    // returning the frame's current return value.
    Instr R;
    R.K = Op::Ret;
    R.A = NoReg;
    emit(R);
  }

  void compileContinue() {
    if (!Scopes.empty()) {
      Scope &S = Scopes.back();
      Instr J;
      J.K = Op::Jmp;
      if (S.Discard) {
        S.AllFix.push_back(emit(J));
      } else if (S.ContTarget >= 0) {
        J.Target = static_cast<int32_t>(S.ContTarget);
        emit(J);
      } else {
        S.ContFix.push_back(emit(J));
      }
      return;
    }
    Instr R;
    R.K = Op::Ret;
    R.A = NoReg;
    emit(R);
  }

  void compileReturn(const ReturnStmt *Ret) {
    // A For's Init/Step discards every flow escape, including Return:
    // the value is recorded but execution continues with the loop.
    size_t DiscardAt = Scopes.size();
    for (size_t I = Scopes.size(); I-- > 0;)
      if (Scopes[I].Discard) {
        DiscardAt = I;
        break;
      }
    uint16_t V = NoReg;
    if (Ret->Value)
      V = compileExpr(Ret->Value);
    if (DiscardAt != Scopes.size()) {
      if (V != NoReg) {
        Instr S;
        S.K = Op::SetRet;
        S.A = V;
        emit(S);
      }
      Instr J;
      J.K = Op::Jmp;
      Scopes[DiscardAt].AllFix.push_back(emit(J));
      return;
    }
    Instr R;
    R.K = Op::Ret;
    R.A = V;
    emit(R);
  }

  void compileStmt(const Stmt *S) {
    if (!S)
      return; // Null statements spend no fuel (interp: `!S || !spendFuel()`).
    ++PendingFuel; // execStmt entry.
    uint32_t Saved = RegTop;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
        compileStmt(Sub);
      break;
    case Stmt::Kind::Decl: {
      const VarDecl *Var = cast<DeclStmt>(S)->Var;
      uint16_t Slot = localSlot(Var);
      Instr NB;
      NB.K = Op::NewBlock;
      NB.B = Slot;
      NB.Extra = internTemplate(Var->DeclaredTy);
      emit(NB);
      if (Var->Init) {
        uint16_t V = compileExpr(Var->Init);
        Instr St;
        St.K = Op::StoreSlot;
        St.A = V;
        St.B = Slot;
        St.Extra = auditIndex(Var->DeclaredTy);
        St.At = Var->Loc;
        emit(St);
      }
      break;
    }
    case Stmt::Kind::Assign: {
      const auto *Assign = cast<AssignStmt>(S);
      const LValue *LHS = Assign->LHS;
      if (LHS->isVar() && LHS->Loc == Assign->Loc) {
        FieldRes FR = resolveFields(LHS->Var->DeclaredTy, LHS);
        if (!FR.Error) {
          // Fused VarAddr+Store. The address computation has no
          // observable effect (the unbound check moves to the store,
          // where it still fires first), so the value is computed first
          // and the lvalue's fuel rides on the RHS's first instruction —
          // the cumulative charge before each instruction is unchanged.
          ++PendingFuel; // evalLValue entry.
          uint16_t V = compileExpr(Assign->RHS);
          Instr St;
          St.K = Op::StoreVar;
          St.B = V;
          auto Glob = GlobalIndex.find(LHS->Var);
          if (Glob != GlobalIndex.end()) {
            St.Mode = AddrGlobal;
            St.Extra = Glob->second;
          } else {
            St.Mode = AddrLocal;
            St.Extra = localSlot(LHS->Var);
          }
          St.Off = static_cast<int32_t>(FR.Off);
          uint32_t Aud = auditIndex(LHS->Ty);
          St.Target = Aud == NoIndex ? -1 : static_cast<int32_t>(Aud);
          St.At = Assign->Loc;
          emit(St);
          break;
        }
      }
      uint16_t A = compileLValue(Assign->LHS);
      uint16_t V = compileExpr(Assign->RHS);
      Instr St;
      St.K = Op::Store;
      St.A = A;
      St.B = V;
      St.Extra = auditIndex(Assign->LHS->Ty);
      St.At = Assign->Loc;
      emit(St);
      break;
    }
    case Stmt::Kind::CallStmt:
      // evalCall directly: no expression-entry fuel for the call node.
      compileCall(cast<CallStmt>(S)->Call);
      break;
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      uint16_t Cond = compileExpr(If->Cond);
      size_t BrAt = emitFalseBranch(Cond);
      RegTop = Saved;
      compileStmt(If->Then);
      if (If->Else) {
        Instr J;
        J.K = Op::Jmp;
        size_t JAt = emit(J); // Absorbs the then-branch's trailing fuel.
        patch(BrAt, here());
        compileStmt(If->Else);
        flushPending();
        patch(JAt, here());
      } else {
        flushPending();
        patch(BrAt, here());
      }
      break;
    }
    case Stmt::Kind::While: {
      const auto *While = cast<WhileStmt>(S);
      flushPending(); // Loop-entry fuel must not recharge per iteration.
      size_t Head = here();
      uint16_t Cond = compileExpr(While->Cond);
      size_t BrAt = emitFalseBranch(Cond);
      RegTop = Saved;
      Scopes.push_back(Scope{false, static_cast<int64_t>(Head), {}, {}, {}});
      compileStmt(While->Body);
      Instr J;
      J.K = Op::Jmp;
      J.Target = static_cast<int32_t>(Head);
      emit(J); // Absorbs the body's trailing fuel.
      Scope Sc = std::move(Scopes.back());
      Scopes.pop_back();
      size_t End = here();
      patch(BrAt, End);
      for (size_t Fix : Sc.BreakFix)
        patch(Fix, End);
      break;
    }
    case Stmt::Kind::For: {
      const auto *For = cast<ForStmt>(S);
      std::vector<size_t> InitFix;
      if (For->Init) {
        Scopes.push_back(Scope{true, -1, {}, {}, {}});
        compileStmt(For->Init);
        InitFix = std::move(Scopes.back().AllFix);
        Scopes.pop_back();
      }
      flushPending();
      size_t Head = here();
      for (size_t Fix : InitFix)
        patch(Fix, Head);
      size_t BrAt = SIZE_MAX;
      if (For->Cond) {
        uint16_t Cond = compileExpr(For->Cond);
        BrAt = emitFalseBranch(Cond);
        RegTop = Saved;
      }
      Scopes.push_back(Scope{false, -1, {}, {}, {}});
      compileStmt(For->Body);
      flushPending(); // Body fall-through fuel; continue paths skip it.
      size_t Cont = here();
      Scope Sc = std::move(Scopes.back());
      Scopes.pop_back();
      for (size_t Fix : Sc.ContFix)
        patch(Fix, Cont);
      if (For->Step) {
        Scopes.push_back(Scope{true, -1, {}, {}, {}});
        compileStmt(For->Step);
        std::vector<size_t> StepFix = std::move(Scopes.back().AllFix);
        Scopes.pop_back();
        for (size_t Fix : StepFix)
          patch(Fix, Head); // Discarded escapes resume the loop.
      }
      Instr J;
      J.K = Op::Jmp;
      J.Target = static_cast<int32_t>(Head);
      emit(J); // Absorbs the step's trailing fuel.
      size_t End = here();
      if (BrAt != SIZE_MAX)
        patch(BrAt, End);
      for (size_t Fix : Sc.BreakFix)
        patch(Fix, End);
      break;
    }
    case Stmt::Kind::Return:
      compileReturn(cast<ReturnStmt>(S));
      break;
    case Stmt::Kind::Break:
      compileBreak();
      break;
    case Stmt::Kind::Continue:
      compileContinue();
      break;
    }
    RegTop = Saved;
  }

  //===--------------------------------------------------------------------===
  // Functions
  //===--------------------------------------------------------------------===

  void resetFunctionState(uint32_t Idx) {
    F = &M.Fns[Idx];
    LocalSlots.clear();
    Scopes.clear();
    PendingFuel = 0;
    RegTop = 0;
  }

  void compileFunction(uint32_t Idx) {
    resetFunctionState(Idx);
    const FuncDecl *Fn = F->Fn;
    for (const VarDecl *P : Fn->Params) {
      F->ParamSlots.push_back(localSlot(P));
      F->ParamTemplates.push_back(internTemplate(P->DeclaredTy));
      F->ParamAudits.push_back(auditIndex(P->DeclaredTy));
    }
    compileStmt(Fn->Body);
    Instr R; // Fall-off-the-end return; absorbs any trailing fuel.
    R.K = Op::Ret;
    R.A = NoReg;
    emit(R);
  }

  /// Fns[0]: run global initializers in declaration order (global blocks
  /// themselves are allocated host-side before execution, preserving the
  /// interpreter's block-id assignment), then call the entry point with
  /// synthesized default arguments — unaudited, exactly like the
  /// interpreter — and return its result.
  void compileStartup(const FuncDecl *Entry) {
    resetFunctionState(0);
    for (size_t GI = 0; GI < M.Globals.size(); ++GI) {
      const VarDecl *G = M.Globals[GI];
      if (!G->Init)
        continue;
      uint16_t A = allocReg();
      Instr VA;
      VA.K = Op::VarAddr;
      VA.Mode = AddrGlobal;
      VA.A = A;
      VA.Extra = static_cast<uint32_t>(GI);
      VA.At = G->Loc;
      emit(VA);
      uint16_t V = compileExpr(G->Init);
      Instr St;
      St.K = Op::Store;
      St.A = A;
      St.B = V;
      St.Extra = auditIndex(G->DeclaredTy);
      St.At = G->Loc;
      emit(St);
      RegTop = 0;
    }
    uint16_t Dst = allocReg();
    for (const VarDecl *P : Entry->Params) {
      uint16_t R = allocReg();
      Instr I;
      I.K = Op::Imm;
      I.A = R;
      I.Extra = internConst(initialValueFor(P->DeclaredTy));
      emit(I);
    }
    ++PendingFuel; // callFunction entry.
    Instr C;
    C.K = Op::Call;
    C.A = Dst;
    C.B = static_cast<uint16_t>(Dst + 1);
    C.C = static_cast<uint16_t>(Entry->Params.size());
    C.Extra = FnIndex[Entry];
    C.At = Entry->Loc;
    C.Mode = 0; // Synthesized entry arguments are exempt from the audit.
    emit(C);
    Instr R;
    R.K = Op::Ret;
    R.A = Dst;
    emit(R);
  }
};

} // namespace

namespace stq::vm {

void compileModule(const cminus::Program &Prog,
                   const qual::QualifierSet &Quals,
                   const std::vector<checker::RuntimeCastCheck> &Checks,
                   const std::string &EntryPoint, ModuleCode &M) {
  Compiler(Prog, Quals, Checks, M).compile(EntryPoint);
}

} // namespace stq::vm
