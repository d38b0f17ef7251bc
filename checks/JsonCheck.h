//===- checks/JsonCheck.h - Minimal JSON parser for validators --*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser used to validate the tracing
/// layer's own output (tools/trace_check, the sink unit tests, and the
/// benchmark JSON checks).  It builds a plain DOM; it is not meant as a
/// general-purpose JSON library — no streaming, no \uXXXX decoding beyond
/// pass-through, numbers as double.
///
/// Test support: part of the fast_checks library that tools/ and tests/
/// link; the production libraries never compile it.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_CHECKS_JSONCHECK_H
#define FAST_CHECKS_JSONCHECK_H

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fast::obs::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Items;
  std::vector<std::pair<std::string, Value>> Members;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }

  /// Object member lookup; null when absent or not an object.
  const Value *find(std::string_view Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, V] : Members)
      if (Name == Key)
        return &V;
    return nullptr;
  }
};

/// Parses \p Text as one JSON document (trailing whitespace allowed).
/// Returns nullopt and fills \p Error (when non-null) on malformed input.
std::optional<Value> parse(std::string_view Text, std::string *Error = nullptr);

} // namespace fast::obs::json

#endif // FAST_CHECKS_JSONCHECK_H
