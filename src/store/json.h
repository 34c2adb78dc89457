#ifndef ENLD_STORE_JSON_H_
#define ENLD_STORE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace enld {
namespace store {

/// Minimal JSON document model for the store's manifests: objects, arrays,
/// strings, numbers (double), booleans and null. Good enough to parse what
/// the store itself writes plus hand-edited manifests; not a general JSON
/// library (no \uXXXX escapes). Numbers must follow the JSON grammar;
/// they are stored as doubles.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array();
  static JsonValue Object();

  /// Parses one JSON document (trailing garbage is an error). Fails with
  /// InvalidArgument on malformed input.
  static StatusOr<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  std::vector<JsonValue>& items() { return items_; }
  const std::vector<JsonValue>& items() const { return items_; }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Sets an object field (insertion order is preserved on write).
  void Set(const std::string& key, JsonValue value);

  /// Serializes with 2-space indentation and object keys in insertion
  /// order, so manifests are stable and diff cleanly.
  std::string ToString() const;

 private:
  void Write(std::string* out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                             // kArray.
  std::vector<std::pair<std::string, JsonValue>> fields_;    // kObject.
};

/// Largest integer a JSON number (a double) carries exactly, 2^53: the
/// bound of an integer field unless its own range is tighter.
inline constexpr uint64_t kMaxJsonInteger = uint64_t{1} << 53;

/// Reads the integer field `key` of `object` into `*out`: it must be a
/// finite, integral number in [0, max]. InvalidArgument otherwise, with
/// `*out` untouched. The one guard in front of every cast from a JSON
/// number to an integer.
Status GetUInt(const JsonValue& object, const std::string& key,
               uint64_t* out, uint64_t max = kMaxJsonInteger);

/// Escapes a string for embedding in JSON (quotes not included).
std::string JsonEscape(const std::string& text);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_JSON_H_
