#ifndef QENS_OBS_JSON_H_
#define QENS_OBS_JSON_H_

/// \file json.h
/// Minimal JSON reading/writing for the observability exporters.
///
/// Scope: exactly what the JSONL/CSV exporters, their round-trip tests and
/// the bench `--json` emitter need — objects, arrays, strings, finite
/// numbers, booleans and null, parsed into a tree of `JsonValue`. Numbers
/// are stored as double (every value the exporters emit fits); `Dump()`
/// prints them with enough digits to round-trip. Not a general-purpose
/// JSON library: no \uXXXX escapes beyond ASCII, no duplicate-key
/// detection. Malformed input, nesting past `kMaxDepth` included, is
/// rejected with a Status.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens::obs {

/// One JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
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
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Array append (requires kArray).
  void Append(JsonValue v);
  /// Object insert/overwrite (requires kObject).
  void Set(const std::string& key, JsonValue v);

  /// Object member or nullptr (requires kObject).
  const JsonValue* Find(const std::string& key) const;

  /// \name Checked typed member access for object nodes
  /// NotFound when the key is absent, InvalidArgument on a kind mismatch.
  /// @{
  Result<double> GetNumber(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;
  /// @}

  /// Compact single-line serialization (object keys sorted — the map
  /// ordering — so output is deterministic).
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// `"`-quoted, escaped JSON string literal for `s`.
std::string JsonQuote(const std::string& s);

/// Format a finite double the way Dump() does (round-trippable; integral
/// values print without a fraction part).
std::string JsonNumber(double v);

}  // namespace qens::obs

#endif  // QENS_OBS_JSON_H_
