//===- Type.h - C-minus types with qualifier sets ---------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-minus type representation. Every type node carries a set of
/// user-defined qualifier names; the paper's postfix notation means a
/// qualifier attaches to the whole type to its left, so `int pos*` is a
/// pointer to pos-qualified int while `int* unique` is a unique-qualified
/// pointer to int. Qualifier order is irrelevant (rule SubQualReorder), so
/// the set is kept sorted and deduplicated.
///
/// Types are hash-consed: a TypeContext holds exactly one node per distinct
/// type, allocated from its memory arena, and a TypePtr is a plain pointer
/// to that node. Each translation unit's Program owns one context, so its
/// types live exactly as long as its AST; types built with no Program (the
/// static factories below) live in one process-wide, mutex-guarded context.
/// A type derived from an existing type (withQual, getPointer, ...) lands in
/// that type's context, and every component of a type belongs to the
/// type's own context. Hence, within one context, two types are equal iff
/// they are the same pointer; across contexts, equals() compares structure.
///
/// Only the thread that front-ends a TU (or applies an inference report to
/// it) may create types in its context; everyone else only reads them.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_TYPE_H
#define STQ_CMINUS_TYPE_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory_resource>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace stq::cminus {

class Type;
class TypeContext;
using TypePtr = const Type *;

/// A type's top-level qualifier names, sorted and deduplicated. Each entry
/// is a name interned in the type's context, so it reads as a
/// `const std::string &`.
class QualList {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string;
    using pointer = const std::string *;
    using reference = const std::string &;
    using difference_type = std::ptrdiff_t;
    explicit iterator(const std::string *const *P = nullptr) : P(P) {}
    const std::string &operator*() const { return **P; }
    const std::string *operator->() const { return *P; }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++P;
      return Old;
    }
    bool operator==(const iterator &O) const { return P == O.P; }

  private:
    const std::string *const *P;
  };

  QualList() = default;
  explicit QualList(std::span<const std::string *const> Names)
      : Names(Names) {}

  size_t size() const { return Names.size(); }
  bool empty() const { return Names.empty(); }
  const std::string &operator[](size_t I) const { return *Names[I]; }
  iterator begin() const { return iterator(Names.data()); }
  iterator end() const { return iterator(Names.data() + Names.size()); }

private:
  std::span<const std::string *const> Names;
};

/// An immutable, interned type. Construct via a TypeContext or the static
/// factories; pointers stay valid for the owning context's lifetime.
class Type {
public:
  enum class Kind : uint8_t { Void, Int, Char, Pointer, Struct, Function };

  Kind getKind() const { return K; }

  /// Top-level qualifier names, sorted and deduplicated.
  QualList quals() const { return QualList({Quals, NumQuals}); }
  bool hasQual(std::string_view Q) const;

  bool isVoid() const { return K == Kind::Void; }
  bool isInt() const { return K == Kind::Int; }
  bool isChar() const { return K == Kind::Char; }
  bool isArithmetic() const { return isInt() || isChar(); }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isStruct() const { return K == Kind::Struct; }
  bool isFunction() const { return K == Kind::Function; }

  /// Pointee type; only valid for pointers.
  TypePtr pointee() const { return Sub; }
  /// Struct tag; only valid for struct types.
  const std::string &structName() const { return *StructName; }
  /// Return type; only valid for function types.
  TypePtr returnType() const { return Sub; }
  /// Parameter types; only valid for function types.
  std::span<const TypePtr> paramTypes() const { return {Params, NumParams}; }
  bool isVariadic() const { return Variadic; }

  /// The context this type is interned in.
  TypeContext &context() const { return *Ctx; }

  // Factories for callers without a translation unit: types built from
  // nothing go to TypeContext::process(); getPointer and getFunction
  // intern in their components' context.
  static TypePtr getVoid();
  static TypePtr getInt();
  static TypePtr getChar();
  static TypePtr getPointer(TypePtr Pointee);
  static TypePtr getStruct(std::string_view Name);
  static TypePtr getFunction(TypePtr Ret, const std::vector<TypePtr> &Params,
                             bool Variadic);

  /// Returns this type with \p Qual added to the top-level qualifier set.
  static TypePtr withQual(TypePtr T, std::string_view Qual);
  /// Returns this type with the given top-level qualifier set (replacing the
  /// existing one).
  static TypePtr withQuals(TypePtr T, const std::vector<std::string> &Quals);
  /// Returns this type with an empty top-level qualifier set. Never
  /// allocates: the link is computed when the type is interned.
  static TypePtr withoutQuals(TypePtr T) { return T->Unqual; }
  /// Returns this type with every qualifier in \p Drop removed from the
  /// top-level set (used to strip reference qualifiers from r-types).
  static TypePtr withoutQualsIn(TypePtr T,
                                const std::vector<std::string> &Drop);
  /// Returns this type with every qualifier removed at every level; the
  /// base type system compares these, leaving all qualifier reasoning to
  /// the extensible checker. Never allocates.
  static TypePtr deepUnqualified(TypePtr T) { return T->DeepUnqual; }

  /// Structural equality including qualifier sets at every level: pointer
  /// identity within one context, a structural walk across contexts.
  static bool equals(TypePtr A, TypePtr B) {
    return A == B || (A->Ctx != B->Ctx && structurallyEqual(A, B));
  }
  /// Structural equality ignoring top-level qualifiers only; nested
  /// qualifier sets must still match (no subtyping under pointers).
  static bool equalsIgnoringTopQuals(TypePtr A, TypePtr B) {
    return equals(A->Unqual, B->Unqual);
  }

  /// The paper's subtype relation for value-qualified types: A <= B iff the
  /// types agree structurally, A's top-level qualifier set is a superset of
  /// B's, and all nested qualifier sets are equal. (Reference qualifiers are
  /// stripped from r-types before this is consulted, so top-level qualifiers
  /// here are value qualifiers.)
  static bool isSubtypeOf(TypePtr A, TypePtr B);

  /// Renders in C-minus postfix syntax, e.g. "int pos*" or "char* untainted".
  std::string str() const;

private:
  friend class TypeContext;
  Type() = default;
  static bool structurallyEqual(TypePtr A, TypePtr B);
  void render(std::string &Out) const;

  Kind K = Kind::Void;
  bool Variadic = false;
  uint32_t NumQuals = 0;
  uint32_t NumParams = 0;
  TypeContext *Ctx = nullptr;
  const std::string *const *Quals = nullptr;
  /// Pointee (pointers) or return type (functions).
  TypePtr Sub = nullptr;
  const TypePtr *Params = nullptr;
  const std::string *StructName = nullptr;
  /// This type with no top-level qualifiers (itself when it has none).
  TypePtr Unqual = nullptr;
  /// This type with no qualifiers at any level.
  TypePtr DeepUnqual = nullptr;
  size_t Hash = 0;
};

/// Interns types: one node per distinct type, allocated from a
/// caller-supplied arena that must outlive the context. A type passed in
/// from another context is first re-interned (imported) here, so a type
/// never points outside its own context. Not thread-safe, except
/// process(), which serializes every call on its own mutex.
class TypeContext {
public:
  explicit TypeContext(std::pmr::memory_resource &Arena) : Arena(Arena) {}
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  /// The process-wide context for types built with no translation unit.
  static TypeContext &process();

  TypePtr getVoid();
  TypePtr getInt();
  TypePtr getChar();
  TypePtr getPointer(TypePtr Pointee);
  TypePtr getStruct(std::string_view Name);
  TypePtr getFunction(TypePtr Ret, std::span<const TypePtr> Params,
                      bool Variadic);

  /// \p T with its top-level qualifier set replaced by \p Quals (any order,
  /// duplicates allowed).
  TypePtr withQuals(TypePtr T, std::span<const std::string_view> Quals);
  TypePtr withQual(TypePtr T, std::string_view Qual);
  /// \p T without the top-level qualifiers named in \p Drop; returns \p T
  /// itself, without touching the table, when none of them is present.
  TypePtr withoutQualsIn(TypePtr T, std::span<const std::string> Drop);

  /// Number of distinct types interned so far.
  size_t size() const { return Count; }

private:
  struct Key {
    explicit Key(Type::Kind K = Type::Kind::Void, bool Variadic = false)
        : K(K), Variadic(Variadic) {}
    Type::Kind K;
    bool Variadic;
    std::span<const std::string *const> Quals;
    TypePtr Sub = nullptr;
    std::span<const TypePtr> Params;
    const std::string *StructName = nullptr;
  };
  class Guard;

  TypeContext(std::pmr::memory_resource &Arena, std::mutex *Lock)
      : Arena(Arena), Lock(Lock) {}

  static size_t hashKey(const Key &K);
  static bool matches(const Type &T, const Key &K, size_t Hash);
  static Key keyOf(TypePtr T);
  /// The node for \p K, created (with its unqualified links) if new.
  TypePtr intern(const Key &K);
  void grow();
  const std::string *internName(std::string_view Name);
  /// \p T itself if it is interned here, else its structural copy here.
  TypePtr importImpl(TypePtr T);
  /// \p T (interned here) with the qualifiers already in Scratch plus
  /// \p Quals as its top-level set; empties Scratch.
  TypePtr withQualsImpl(TypePtr T, std::span<const std::string_view> Quals);

  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  std::pmr::memory_resource &Arena;
  /// Set only for process(): every public call then holds it.
  std::mutex *Lock = nullptr;
  /// Qualifier and struct names; node-based, so entries never move.
  std::unordered_set<std::string, NameHash, std::equal_to<>> Names;
  /// Open-addressing table of interned types (power-of-two size).
  std::vector<const Type *> Slots;
  size_t Count = 0;
  /// Interned qualifier names being assembled by withQualsImpl.
  std::vector<const std::string *> Scratch;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_TYPE_H
