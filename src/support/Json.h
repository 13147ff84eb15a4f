//===- support/Json.h - Minimal JSON reader/writer -------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON DOM: enough to parse a benchmark baseline
/// (`alf_bench --compare`) and to validate emitted trace/metrics files in
/// tests, with deterministic serialization (objects keep insertion
/// order). Not a general-purpose library: numbers are doubles, no
/// \uXXXX surrogate pairs, inputs are trusted files we wrote ourselves.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SUPPORT_JSON_H
#define ALF_SUPPORT_JSON_H

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace alf {
namespace json {

/// One JSON value. Plain aggregate — copy freely; these trees are small.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double N);
  static Value str(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }

  // --- arrays ---
  const std::vector<Value> &items() const { return Arr; }
  void push(Value V) { Arr.push_back(std::move(V)); }
  size_t size() const { return K == Kind::Array ? Arr.size() : Obj.size(); }

  // --- objects ---
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }
  /// Member lookup; null when absent or not an object.
  const Value *get(const std::string &Key) const;
  /// Sets (or replaces) a member, preserving first-insertion order.
  void set(std::string Key, Value V);

  /// Convenience typed lookups for the bench/trace schemas.
  std::optional<double> getNumber(const std::string &Key) const;
  std::optional<std::string> getString(const std::string &Key) const;
  std::optional<bool> getBool(const std::string &Key) const;

  /// Serializes with 2-space indentation (deterministic: object members
  /// in insertion order).
  void write(std::ostream &OS) const;
  std::string str() const;

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;

  void writeIndented(std::ostream &OS, unsigned Indent) const;
};

/// Deepest array/object nesting parse() accepts. Deeper input is
/// malformed rather than a stack overflow.
inline constexpr unsigned MaxNestingDepth = 512;

/// Parses \p Text; nullopt with \p Error set ("offset N: message") on
/// malformed input, including nesting deeper than MaxNestingDepth.
/// Trailing whitespace is allowed, trailing garbage is an error.
std::optional<Value> parse(const std::string &Text,
                           std::string *Error = nullptr);

/// JSON string-literal escaping of \p S (no surrounding quotes).
std::string escapeString(const std::string &S);

} // namespace json
} // namespace alf

#endif // ALF_SUPPORT_JSON_H
