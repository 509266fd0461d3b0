//===- Json.h - Minimal JSON values for the RPC protocol --------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON value type with a strict parser and a deterministic writer,
/// used by the `stq-rpc-v1` server protocol (src/server/Protocol.h) and by
/// the bench report writer (bench/Report.h, schema `stq-bench-v2`), whose
/// free-text details need the writer's escaping. The older emitters
/// (metrics, diagnostics, traces) keep their hand-rolled writers; besides
/// the bench reports, this type serves the code that must *read* JSON: the
/// stqd request decoder and the stqc client-mode response decoder.
///
/// Supported: objects, arrays, strings (with \uXXXX escapes decoded to
/// UTF-8), integers, doubles, booleans, null. Object member order is
/// preserved, which keeps encode(decode(x)) stable. A Raw node kind lets
/// the server embed pre-rendered documents (an `stq-metrics-v1` payload)
/// verbatim without re-parsing them; the parser never produces Raw nodes.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_JSON_H
#define STQ_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace stq::json {

/// One JSON value. Cheap to move; copies are deep.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object, Raw };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value integer(int64_t N);
  static Value number(double D);
  static Value str(std::string S);
  static Value array();
  static Value object();
  /// A pre-rendered JSON document emitted verbatim by write(). The caller
  /// guarantees \p Text is itself valid JSON.
  static Value raw(std::string Text);

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  int64_t asInt() const { return K == Kind::Double ? static_cast<int64_t>(D) : I; }
  double asDouble() const { return K == Kind::Int ? static_cast<double>(I) : D; }
  const std::string &asString() const { return S; }

  /// Array access.
  const std::vector<Value> &elements() const { return Elems; }
  void push(Value V) { Elems.push_back(std::move(V)); }

  /// Object access. Members keep insertion order; get() returns nullptr
  /// when the key is absent.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  const Value *get(const std::string &Key) const;
  void set(std::string Key, Value V);

  /// Typed member lookups with defaults, for decoding requests leniently.
  std::string getString(const std::string &Key,
                        const std::string &Default = {}) const;
  int64_t getInt(const std::string &Key, int64_t Default = 0) const;
  bool getBool(const std::string &Key, bool Default = false) const;

  /// Serializes to compact single-line JSON (no newlines: the RPC framing
  /// is one document per line). Strings escape control characters, so the
  /// output never contains a literal newline.
  std::string write() const;
  void writeInto(std::string &Out) const;

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0.0;
  std::string S; ///< String payload, or raw text for Kind::Raw.
  std::vector<Value> Elems;
  std::vector<std::pair<std::string, Value>> Members;
};

/// Strict parse of one JSON document. Trailing garbage after the document
/// is an error. Returns false with \p Error set on malformed input.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace stq::json

#endif // STQ_SUPPORT_JSON_H
