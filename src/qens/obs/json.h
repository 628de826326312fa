#ifndef QENS_OBS_JSON_H_
#define QENS_OBS_JSON_H_

/// \file json.h
/// Minimal JSON reading/writing for the observability exporters.
///
/// Scope: exactly what the JSON/JSONL exporters, their round-trip tests and
/// the bench `--json` emitter need — objects, arrays, strings, numbers,
/// booleans and null, parsed into a tree of `JsonValue`. A number node keeps
/// its literal text, so an unsigned count survives exactly over its whole
/// range and a double prints with enough digits to round-trip. RFC 8259 has
/// no literal for NaN or the infinities; `Number()` writes those as the
/// strings "NaN", "Infinity" and "-Infinity". Not a general-purpose JSON
/// library: no \uXXXX escapes beyond ASCII, no duplicate-key detection.
/// Malformed input, a number outside the RFC 8259 grammar or nesting past
/// `kMaxDepth` included, is rejected with a Status.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens::obs {

class JsonParser;

/// One JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  /// A number node spelled in the shortest form that round-trips `v`
  /// (integral values below 1e15 without a fraction part); a non-finite `v`
  /// becomes the string node "NaN", "Infinity" or "-Infinity".
  static JsonValue Number(double v);
  /// A number node spelled as the decimal digits of `v`.
  static JsonValue Count(uint64_t v);
  static JsonValue String(std::string v);
  static JsonValue Array();
  static JsonValue Object();

  /// Deepest array/object nesting Parse accepts. The parser recurses once
  /// per level, so the cap bounds its stack use; the exporters nest 4 deep.
  static constexpr size_t kMaxDepth = 256;

  /// Parse one document (leading/trailing whitespace allowed; anything
  /// else after the document is an error).
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  /// The number's value, rounded to the nearest double.
  double AsNumber() const;
  /// The number's text as written or parsed (an RFC 8259 number).
  const std::string& Literal() const { return string_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Array append (requires kArray).
  void Append(JsonValue v);
  /// Object insert/overwrite (requires kObject).
  void Set(const std::string& key, JsonValue v);

  /// Object member or nullptr (requires kObject).
  const JsonValue* Find(const std::string& key) const;

  /// Compact single-line serialization (object keys sorted — the map
  /// ordering — so output is deterministic).
  std::string Dump() const;

 private:
  friend class JsonParser;  // Builds number nodes from checked literals.

  Kind kind_;
  bool bool_ = false;
  std::string string_;  ///< kString: the value; kNumber: the literal.
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// `"`-quoted, escaped JSON string literal for `s`.
std::string JsonQuote(const std::string& s);

}  // namespace qens::obs

#endif  // QENS_OBS_JSON_H_
