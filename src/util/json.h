// Minimal JSON document model and strict recursive-descent parser.
//
// Exists for the small machine-readable inputs the library consumes —
// first of all the validation tolerance file (valid/tolerances.json). The
// writers in obs/ emit JSON by hand; this is the matching reader. It is
// deliberately tiny: UTF-8 pass-through strings, doubles for all numbers,
// no comments, no trailing commas, objects keep key order out of scope
// (std::map). Parse errors carry line/column context.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace actnet::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  /// Parses one complete JSON document (trailing garbage rejected);
  /// throws actnet::Error with line:column on malformed input.
  static JsonValue parse(const std::string& text);
  /// Non-throwing variant; nullopt on malformed input.
  static std::optional<JsonValue> try_parse(const std::string& text);

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Typed accessors; throw actnet::Error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; throws when not an object or the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  bool has(const std::string& key) const;
  /// Object field lookup returning nullptr when absent (still throws when
  /// this is not an object).
  const JsonValue* find(const std::string& key) const;

  /// Convenience: `at(key).as_number()`, or `fallback` when absent.
  double number_or(const std::string& key, double fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// newlines — the writers' half of the pass-through string rule above.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace actnet::util
