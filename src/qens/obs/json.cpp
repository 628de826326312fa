#include "qens/obs/json.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "qens/common/string_util.h"

namespace qens::obs {

namespace {

/// A finite double as a JSON number: the shortest form that round-trips,
/// integral values below 1e15 without a fraction part.
std::string JsonNumber(double v) {
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    return StrFormat("%.0f", v);
  }
  // %.17g round-trips any double; trim to the shortest that still does.
  for (int precision = 15; precision <= 17; ++precision) {
    std::string s = StrFormat("%.*g", precision, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return StrFormat("%.17g", v);
}

}  // namespace

JsonValue JsonValue::Bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::Number(double v) {
  if (std::isnan(v)) return String("NaN");
  if (std::isinf(v)) return String(v > 0 ? "Infinity" : "-Infinity");
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.string_ = JsonNumber(v);
  return j;
}

JsonValue JsonValue::Count(uint64_t v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.string_ = std::to_string(v);
  return j;
}

double JsonValue::AsNumber() const {
  return std::strtod(string_.c_str(), nullptr);
}

JsonValue JsonValue::String(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::Array() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::Object() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

void JsonValue::Append(JsonValue v) {
  assert(is_array());
  array_.push_back(std::move(v));
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  assert(is_object());
  object_[key] = std::move(v);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return string_;
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += array_[i].Dump();
      }
      out.push_back(']');
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        out += JsonQuote(key);
        out.push_back(':');
        out += value.Dump();
      }
      out.push_back('}');
      return out;
    }
  }
  return "null";
}

/// Recursive-descent parser over a bounds-checked cursor.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    QENS_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrFormat("json: trailing content at offset %zu", pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::InvalidArgument(
          StrFormat("json: expected '%c' at offset %zu", c, pos_));
    }
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
      case '[':
        return ParseContainer();
      case '"': {
        QENS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true));
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false));
      case 'n':
        return ParseLiteral("null", JsonValue::Null());
      default:
        if (text_[pos_] == '-' ||
            std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          return ParseNumber();
        }
        return Status::InvalidArgument(
            StrFormat("json: expected a value at offset %zu", pos_));
    }
  }

  Result<JsonValue> ParseContainer() {
    if (depth_ == JsonValue::kMaxDepth) {
      return Status::InvalidArgument(
          StrFormat("json: nesting deeper than %zu at offset %zu",
                    JsonValue::kMaxDepth, pos_));
    }
    ++depth_;
    Result<JsonValue> value = text_[pos_] == '{' ? ParseObject() : ParseArray();
    --depth_;
    return value;
  }

  Result<JsonValue> ParseLiteral(const char* word, JsonValue value) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Status::InvalidArgument(
          StrFormat("json: bad literal at offset %zu", pos_));
    }
    pos_ += len;
    return value;
  }

  /// An RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    const size_t integer = pos_;
    bool ok =
        SkipDigits() > 0 && (text_[integer] != '0' || pos_ == integer + 1);
    if (ok && Consume('.')) ok = SkipDigits() > 0;
    if (ok && (Consume('e') || Consume('E'))) {
      if (!Consume('+')) Consume('-');
      ok = SkipDigits() > 0;
    }
    if (!ok) {
      return Status::InvalidArgument(
          StrFormat("json: bad number at offset %zu", start));
    }
    JsonValue number;
    number.kind_ = JsonValue::Kind::kNumber;
    number.string_ = text_.substr(start, pos_ - start);
    return number;
  }

  /// Advances past a run of ASCII digits; returns its length.
  size_t SkipDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ - start;
  }

  Result<std::string> ParseString() {
    QENS_RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("json: truncated \\u escape");
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == nullptr || *end != '\0' || code < 0) {
            return Status::InvalidArgument("json: bad \\u escape " + hex);
          }
          if (code > 0x7f) {
            return Status::NotImplemented(
                "json: non-ASCII \\u escapes are unsupported");
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("json: bad escape '\\%c'", esc));
      }
    }
    QENS_RETURN_NOT_OK(Expect('"'));
    return out;
  }

  Result<JsonValue> ParseArray() {
    QENS_RETURN_NOT_OK(Expect('['));
    JsonValue out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      SkipWhitespace();
      QENS_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      out.Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return out;
      QENS_RETURN_NOT_OK(Expect(','));
    }
  }

  Result<JsonValue> ParseObject() {
    QENS_RETURN_NOT_OK(Expect('{'));
    JsonValue out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      QENS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      QENS_RETURN_NOT_OK(Expect(':'));
      SkipWhitespace();
      QENS_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) return out;
      QENS_RETURN_NOT_OK(Expect(','));
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< Arrays/objects open at pos_.
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

}  // namespace qens::obs
