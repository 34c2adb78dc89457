#include "store/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace enld {
namespace store {

namespace {

/// Recursive-descent parser over a character range.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    StatusOr<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    if (++depth_ > 64) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    StatusOr<JsonValue> out = [&]() -> StatusOr<JsonValue> {
      const char c = text_[pos_];
      if (c == '{') return ParseObject();
      if (c == '[') return ParseArray();
      if (c == '"') {
        StatusOr<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::String(std::move(s.value()));
      }
      if (ConsumeWord("true")) return JsonValue::Bool(true);
      if (ConsumeWord("false")) return JsonValue::Bool(false);
      if (ConsumeWord("null")) return JsonValue();
      return ParseNumber();
    }();
    --depth_;
    return out;
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'.
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return object;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      object.Set(key.value(), std::move(value.value()));
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['.
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return array;
    while (true) {
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      array.items().push_back(std::move(value.value()));
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          default:
            return Error("unsupported escape sequence");
        }
        continue;
      }
      out.push_back(c);
    }
    return Error("unterminated string");
  }

  /// A number in the JSON grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// converted by strtod only once the whole literal has matched — so
  /// "nan", "inf" and "0x10" are not numbers.
  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    auto at = [&](const char* chars) {
      return pos_ < text_.size() && text_[pos_] != '\0' &&
             std::strchr(chars, text_[pos_]) != nullptr;
    };
    auto digits = [&] {
      const size_t first = pos_;
      while (at("0123456789")) ++pos_;
      return pos_ > first;
    };
    if (at("-")) ++pos_;
    if (at("0")) {
      ++pos_;
    } else if (!digits()) {
      return Error("expected a JSON value");
    }
    if (at(".")) {
      ++pos_;
      if (!digits()) return Error("malformed number");
    }
    if (at("eE")) {
      ++pos_;
      if (at("+-")) ++pos_;
      if (!digits()) return Error("malformed number");
    }
    const std::string literal = text_.substr(start, pos_ - start);
    return JsonValue::Number(std::strtod(literal.c_str(), nullptr));
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

void WriteNumber(std::string* out, double v) {
  char buffer[64];
  // Integers (the common case: row counts, CRCs, sizes) print exactly;
  // other doubles use round-trippable %.17g. The range check comes first:
  // casting a double outside long long's range is undefined.
  if (std::fabs(v) < 0x1p63 && v == std::trunc(v)) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  }
  out->append(buffer);
}

}  // namespace

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::Object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : fields_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& [name, existing] : fields_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  fields_.emplace_back(key, std::move(value));
}

std::string JsonValue::ToString() const {
  std::string out;
  Write(&out, 0);
  out.push_back('\n');
  return out;
}

void JsonValue::Write(std::string* out, int indent) const {
  const std::string pad(2 * (indent + 1), ' ');
  const std::string closing_pad(2 * indent, ' ');
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      break;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      WriteNumber(out, number_);
      break;
    case Kind::kString:
      out->push_back('"');
      out->append(JsonEscape(string_));
      out->push_back('"');
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        out->append("[]");
        break;
      }
      out->append("[\n");
      for (size_t i = 0; i < items_.size(); ++i) {
        out->append(pad);
        items_[i].Write(out, indent + 1);
        if (i + 1 < items_.size()) out->push_back(',');
        out->push_back('\n');
      }
      out->append(closing_pad);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        out->append("{}");
        break;
      }
      out->append("{\n");
      for (size_t i = 0; i < fields_.size(); ++i) {
        out->append(pad);
        out->push_back('"');
        out->append(JsonEscape(fields_[i].first));
        out->append("\": ");
        fields_[i].second.Write(out, indent + 1);
        if (i + 1 < fields_.size()) out->push_back(',');
        out->push_back('\n');
      }
      out->append(closing_pad);
      out->push_back('}');
      break;
    }
  }
}

Status GetUInt(const JsonValue& object, const std::string& key,
               uint64_t* out, uint64_t max) {
  const JsonValue* field = object.Find(key);
  const double v =
      field != nullptr && field->is_number() ? field->AsNumber() : -1.0;
  if (!(v >= 0.0 && v <= static_cast<double>(max) && v == std::trunc(v))) {
    return Status::InvalidArgument("JSON field '" + key +
                                   "' is missing or not an integer in [0, " +
                                   std::to_string(max) + "]");
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\t': out.append("\\t"); break;
      case '\r': out.append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out.append(buffer);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace store
}  // namespace enld
