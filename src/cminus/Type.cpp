//===- Type.cpp -----------------------------------------------------------===//

#include "cminus/Type.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace stq::cminus;

//===----------------------------------------------------------------------===//
// Type
//===----------------------------------------------------------------------===//

bool Type::hasQual(std::string_view Q) const {
  const std::string *const *End = Quals + NumQuals;
  const std::string *const *It = std::lower_bound(
      Quals, End, Q, [](const std::string *A, std::string_view B) {
        return std::string_view(*A) < B;
      });
  return It != End && **It == Q;
}

TypePtr Type::getVoid() {
  static const TypePtr T = TypeContext::process().getVoid();
  return T;
}

TypePtr Type::getInt() {
  static const TypePtr T = TypeContext::process().getInt();
  return T;
}

TypePtr Type::getChar() {
  static const TypePtr T = TypeContext::process().getChar();
  return T;
}

TypePtr Type::getPointer(TypePtr Pointee) {
  assert(Pointee && "pointer to null type");
  return Pointee->context().getPointer(Pointee);
}

TypePtr Type::getStruct(std::string_view Name) {
  return TypeContext::process().getStruct(Name);
}

TypePtr Type::getFunction(TypePtr Ret, const std::vector<TypePtr> &Params,
                          bool Variadic) {
  // The function type lives with its components: in the first one that
  // belongs to a translation unit, else in the process context.
  TypeContext *Ctx = Ret->Ctx;
  for (TypePtr P : Params)
    if (Ctx == &TypeContext::process())
      Ctx = P->Ctx;
  return Ctx->getFunction(Ret, Params, Variadic);
}

TypePtr Type::withQual(TypePtr T, std::string_view Qual) {
  return T->context().withQual(T, Qual);
}

TypePtr Type::withQuals(TypePtr T, const std::vector<std::string> &Quals) {
  std::vector<std::string_view> Names(Quals.begin(), Quals.end());
  return T->context().withQuals(T, Names);
}

TypePtr Type::withoutQualsIn(TypePtr T, const std::vector<std::string> &Drop) {
  return T->context().withoutQualsIn(T, Drop);
}

bool Type::structurallyEqual(TypePtr A, TypePtr B) {
  if (A == B)
    return true;
  if (A->K != B->K || A->Variadic != B->Variadic ||
      A->NumQuals != B->NumQuals || A->NumParams != B->NumParams)
    return false;
  for (uint32_t I = 0; I < A->NumQuals; ++I)
    if (*A->Quals[I] != *B->Quals[I])
      return false;
  if (A->K == Kind::Struct && *A->StructName != *B->StructName)
    return false;
  if (A->Sub && !structurallyEqual(A->Sub, B->Sub))
    return false;
  for (uint32_t I = 0; I < A->NumParams; ++I)
    if (!structurallyEqual(A->Params[I], B->Params[I]))
      return false;
  return true;
}

bool Type::isSubtypeOf(TypePtr A, TypePtr B) {
  if (!equalsIgnoringTopQuals(A, B))
    return false;
  // A's qualifier set must include B's (tau q <= tau, transitively).
  QualList AQ = A->quals(), BQ = B->quals();
  return std::includes(AQ.begin(), AQ.end(), BQ.begin(), BQ.end());
}

void Type::render(std::string &Out) const {
  switch (K) {
  case Kind::Void:
    Out += "void";
    break;
  case Kind::Int:
    Out += "int";
    break;
  case Kind::Char:
    Out += "char";
    break;
  case Kind::Struct:
    Out += "struct ";
    Out += *StructName;
    break;
  case Kind::Pointer:
    Sub->render(Out);
    Out += "*";
    break;
  case Kind::Function:
    Sub->render(Out);
    Out += " (";
    for (uint32_t I = 0; I < NumParams; ++I) {
      if (I)
        Out += ", ";
      Params[I]->render(Out);
    }
    if (Variadic)
      Out += NumParams == 0 ? "..." : ", ...";
    Out += ")";
    break;
  }
  for (uint32_t I = 0; I < NumQuals; ++I) {
    Out += " ";
    Out += *Quals[I];
  }
}

std::string Type::str() const {
  std::string Out;
  render(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

/// Holds the process context's mutex for one public call; a no-op for a
/// translation unit's context.
class TypeContext::Guard {
public:
  explicit Guard(TypeContext &Ctx) : Lock(Ctx.Lock) {
    if (Lock)
      Lock->lock();
  }
  ~Guard() {
    if (Lock)
      Lock->unlock();
  }
  Guard(const Guard &) = delete;
  Guard &operator=(const Guard &) = delete;

private:
  std::mutex *Lock;
};

TypeContext &TypeContext::process() {
  static std::pmr::monotonic_buffer_resource Arena;
  static std::mutex Mutex;
  static TypeContext Ctx(Arena, &Mutex);
  return Ctx;
}

namespace {

size_t mix(size_t H, size_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

size_t ptrBits(const void *P) { return reinterpret_cast<uintptr_t>(P) >> 3; }

template <typename T>
bool samePointers(std::span<const T> A, std::span<const T> B) {
  return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
}

} // namespace

size_t TypeContext::hashKey(const Key &K) {
  size_t H = mix(static_cast<size_t>(K.K), K.Variadic);
  for (const std::string *Q : K.Quals)
    H = mix(H, ptrBits(Q));
  H = mix(H, ptrBits(K.Sub));
  for (TypePtr P : K.Params)
    H = mix(H, ptrBits(P));
  return mix(H, ptrBits(K.StructName));
}

bool TypeContext::matches(const Type &T, const Key &K, size_t Hash) {
  return T.Hash == Hash && T.K == K.K && T.Variadic == K.Variadic &&
         T.Sub == K.Sub && T.StructName == K.StructName &&
         samePointers<const std::string *>({T.Quals, T.NumQuals}, K.Quals) &&
         samePointers<TypePtr>({T.Params, T.NumParams}, K.Params);
}

TypeContext::Key TypeContext::keyOf(TypePtr T) {
  Key K;
  K.K = T->K;
  K.Variadic = T->Variadic;
  K.Quals = {T->Quals, T->NumQuals};
  K.Sub = T->Sub;
  K.Params = {T->Params, T->NumParams};
  K.StructName = T->StructName;
  return K;
}

void TypeContext::grow() {
  std::vector<const Type *> Old(Slots.empty() ? 64 : Slots.size() * 2,
                                nullptr);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Type *T : Old) {
    if (!T)
      continue;
    size_t I = T->Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = T;
  }
}

TypePtr TypeContext::intern(const Key &K) {
  size_t H = hashKey(K);
  if (!Slots.empty()) {
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask; Slots[I]; I = (I + 1) & Mask)
      if (matches(*Slots[I], K, H))
        return Slots[I];
  }

  // Intern the unqualified and deep-unqualified forms first; a key with no
  // qualifiers (and, for the deep form, deep-unqualified components) links
  // to itself, so the recursion stops there.
  TypePtr Unqual = nullptr;
  if (!K.Quals.empty()) {
    Key U = K;
    U.Quals = {};
    Unqual = intern(U);
  }
  Key D = K;
  D.Quals = {};
  bool DeepIsSelf = K.Quals.empty();
  if (K.Sub) {
    D.Sub = K.Sub->DeepUnqual;
    DeepIsSelf = DeepIsSelf && D.Sub == K.Sub;
  }
  std::vector<TypePtr> DeepParams;
  if (!K.Params.empty()) {
    DeepParams.reserve(K.Params.size());
    for (TypePtr P : K.Params) {
      DeepParams.push_back(P->DeepUnqual);
      DeepIsSelf = DeepIsSelf && P->DeepUnqual == P;
    }
    D.Params = DeepParams;
  }
  TypePtr Deep = DeepIsSelf ? nullptr : intern(D);

  auto *T = new (Arena.allocate(sizeof(Type), alignof(Type))) Type();
  T->K = K.K;
  T->Variadic = K.Variadic;
  T->Ctx = this;
  T->Sub = K.Sub;
  T->StructName = K.StructName;
  T->Hash = H;
  if (!K.Quals.empty()) {
    auto *Q = static_cast<const std::string **>(Arena.allocate(
        K.Quals.size() * sizeof(const std::string *),
        alignof(const std::string *)));
    std::copy(K.Quals.begin(), K.Quals.end(), Q);
    T->Quals = Q;
    T->NumQuals = static_cast<uint32_t>(K.Quals.size());
  }
  if (!K.Params.empty()) {
    auto *P = static_cast<TypePtr *>(
        Arena.allocate(K.Params.size() * sizeof(TypePtr), alignof(TypePtr)));
    std::copy(K.Params.begin(), K.Params.end(), P);
    T->Params = P;
    T->NumParams = static_cast<uint32_t>(K.Params.size());
  }
  T->Unqual = Unqual ? Unqual : T;
  T->DeepUnqual = Deep ? Deep : T;

  if ((Count + 1) * 2 > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  size_t I = H & Mask;
  while (Slots[I])
    I = (I + 1) & Mask;
  Slots[I] = T;
  ++Count;
  return T;
}

const std::string *TypeContext::internName(std::string_view Name) {
  auto It = Names.find(Name);
  if (It == Names.end())
    It = Names.emplace(Name).first;
  return &*It;
}

TypePtr TypeContext::importImpl(TypePtr T) {
  if (T->Ctx == this)
    return T;
  // Names keep their order: they sort by value in every context.
  std::vector<const std::string *> Quals;
  for (const std::string &Q : T->quals())
    Quals.push_back(internName(Q));
  std::vector<TypePtr> Params;
  for (TypePtr P : T->paramTypes())
    Params.push_back(importImpl(P));
  Key K;
  K.K = T->K;
  K.Variadic = T->Variadic;
  K.Quals = Quals;
  K.Sub = T->Sub ? importImpl(T->Sub) : nullptr;
  K.Params = Params;
  K.StructName = T->StructName ? internName(*T->StructName) : nullptr;
  return intern(K);
}

TypePtr TypeContext::withQualsImpl(TypePtr T,
                                   std::span<const std::string_view> Quals) {
  for (std::string_view Q : Quals)
    Scratch.push_back(internName(Q));
  std::sort(Scratch.begin(), Scratch.end(),
            [](const std::string *A, const std::string *B) { return *A < *B; });
  Scratch.erase(std::unique(Scratch.begin(), Scratch.end()), Scratch.end());
  TypePtr Result = T;
  if (!samePointers<const std::string *>(Scratch, {T->Quals, T->NumQuals})) {
    Key K = keyOf(T);
    K.Quals = Scratch;
    Result = intern(K);
  }
  Scratch.clear();
  return Result;
}

TypePtr TypeContext::getVoid() {
  Guard G(*this);
  return intern(Key{Type::Kind::Void});
}

TypePtr TypeContext::getInt() {
  Guard G(*this);
  return intern(Key{Type::Kind::Int});
}

TypePtr TypeContext::getChar() {
  Guard G(*this);
  return intern(Key{Type::Kind::Char});
}

TypePtr TypeContext::getPointer(TypePtr Pointee) {
  Guard G(*this);
  Key K{Type::Kind::Pointer};
  K.Sub = importImpl(Pointee);
  return intern(K);
}

TypePtr TypeContext::getStruct(std::string_view Name) {
  Guard G(*this);
  Key K{Type::Kind::Struct};
  K.StructName = internName(Name);
  return intern(K);
}

TypePtr TypeContext::getFunction(TypePtr Ret, std::span<const TypePtr> Params,
                                 bool Variadic) {
  Guard G(*this);
  std::vector<TypePtr> Own;
  Own.reserve(Params.size());
  for (TypePtr P : Params)
    Own.push_back(importImpl(P));
  Key K{Type::Kind::Function, Variadic};
  K.Sub = importImpl(Ret);
  K.Params = Own;
  return intern(K);
}

TypePtr TypeContext::withQuals(TypePtr T,
                               std::span<const std::string_view> Quals) {
  Guard G(*this);
  return withQualsImpl(importImpl(T), Quals);
}

TypePtr TypeContext::withQual(TypePtr T, std::string_view Qual) {
  Guard G(*this);
  T = importImpl(T);
  if (T->hasQual(Qual))
    return T;
  Scratch.assign(T->Quals, T->Quals + T->NumQuals);
  return withQualsImpl(T, {&Qual, 1});
}

TypePtr TypeContext::withoutQualsIn(TypePtr T,
                                    std::span<const std::string> Drop) {
  auto Dropped = [&](const std::string *Q) {
    return std::find(Drop.begin(), Drop.end(), *Q) != Drop.end();
  };
  if (std::none_of(T->Quals, T->Quals + T->NumQuals, Dropped))
    return T;
  Guard G(*this);
  T = importImpl(T);
  std::copy_if(T->Quals, T->Quals + T->NumQuals, std::back_inserter(Scratch),
               [&](const std::string *Q) { return !Dropped(Q); });
  return withQualsImpl(T, {});
}
