#include "qdm/net/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <type_traits>
#include <utility>

#include "qdm/common/strings.h"

namespace qdm {
namespace net {

namespace {

constexpr int kMaxDepth = 64;

Status ParseError(size_t offset, const std::string& what) {
  return Status::InvalidArgument(
      StrFormat("JSON parse error at offset %zu: %s", offset, what.c_str()));
}

bool TokenIsInteger(const std::string& token) {
  return token.find('.') == std::string::npos &&
         token.find('e') == std::string::npos &&
         token.find('E') == std::string::npos;
}

/// True when std::from_chars takes the whole token. A JSON integer token
/// it refuses is out of range; AsDouble retries any refused token with
/// strtod.
template <typename T>
bool FromCharsWhole(const std::string& token, T* value) {
  const char* const end = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), end, *value);
  return result.ec == std::errc() && result.ptr == end;
}

}  // namespace

/// Recursive-descent parser over `text_`; error statuses carry the current
/// byte offset. A friend of JsonValue, it fills each value in place.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    QDM_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return ParseError(pos_, "trailing content after the JSON document");
    }
    return value;
  }

 private:
  using Type = JsonValue::Type;

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return ParseError(pos_, "nesting exceeds the depth limit");
    }
    SkipWhitespace();
    if (AtEnd()) return ParseError(pos_, "unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[':
        return ParseContainer(out, depth);
      case '"':
        out->type_ = Type::kString;
        return ParseString(&out->scalar_);
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  /// One loop for objects and arrays: an object's members are
  /// "key": value pairs, an array's items bare values.
  Status ParseContainer(JsonValue* out, int depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out->type_ = object ? Type::kObject : Type::kArray;
    SkipWhitespace();
    if (!AtEnd() && text_[pos_] == close) {
      ++pos_;
      return Status::Ok();
    }
    for (;;) {
      JsonValue* value = nullptr;
      if (object) {
        SkipWhitespace();
        if (AtEnd() || text_[pos_] != '"') {
          return ParseError(pos_, "expected a quoted object key");
        }
        std::string key;
        QDM_RETURN_IF_ERROR(ParseString(&key));
        SkipWhitespace();
        if (AtEnd() || text_[pos_] != ':') {
          return ParseError(pos_, "expected ':' after object key");
        }
        ++pos_;
        value = &out->members_.emplace_back(std::move(key), JsonValue()).second;
      } else {
        value = &out->array_.emplace_back();
      }
      QDM_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      SkipWhitespace();
      if (AtEnd()) {
        return ParseError(
            pos_, object ? "unterminated object" : "unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == close) {
        ++pos_;
        return Status::Ok();
      }
      return ParseError(pos_, object ? "expected ',' or '}' in object"
                                     : "expected ',' or ']' in array");
    }
  }

  /// Reads a quoted string at pos_ (an object key or a string value),
  /// unescaped, into the empty `*out`.
  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    while (!AtEnd()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (c == '\\') {
        QDM_RETURN_IF_ERROR(ParseEscape(out));
        continue;
      }
      if (c < 0x20) {
        return ParseError(pos_, "unescaped control character in string");
      }
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    return ParseError(pos_, "unterminated string");
  }

  Status ParseEscape(std::string* out) {
    ++pos_;  // '\\'
    if (AtEnd()) return ParseError(pos_, "dangling escape");
    const char c = text_[pos_++];
    switch (c) {
      case '"':
      case '\\':
      case '/':
        out->push_back(c);
        return Status::Ok();
      case 'b':
        out->push_back('\b');
        return Status::Ok();
      case 'f':
        out->push_back('\f');
        return Status::Ok();
      case 'n':
        out->push_back('\n');
        return Status::Ok();
      case 'r':
        out->push_back('\r');
        return Status::Ok();
      case 't':
        out->push_back('\t');
        return Status::Ok();
      case 'u':
        return ParseUnicodeEscape(out);
      default:
        return ParseError(pos_ - 1, "unknown escape character");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return ParseError(pos_, "truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return ParseError(pos_ + i, "invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::Ok();
  }

  Status ParseUnicodeEscape(std::string* out) {
    uint32_t code_point = 0;
    QDM_RETURN_IF_ERROR(ParseHex4(&code_point));
    if (code_point >= 0xD800 && code_point <= 0xDBFF) {
      // High surrogate: a \uXXXX low surrogate must follow.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return ParseError(pos_, "high surrogate not followed by \\u escape");
      }
      pos_ += 2;
      uint32_t low = 0;
      QDM_RETURN_IF_ERROR(ParseHex4(&low));
      if (low < 0xDC00 || low > 0xDFFF) {
        return ParseError(pos_ - 4, "invalid low surrogate");
      }
      code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
    } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
      return ParseError(pos_ - 4, "unpaired low surrogate");
    }
    AppendUtf8(code_point, out);
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// true, false and null.
  Status ParseLiteral(JsonValue* out) {
    static constexpr struct {
      std::string_view text;
      Type type;
      bool value;
    } kLiterals[] = {{"true", Type::kBool, true},
                     {"false", Type::kBool, false},
                     {"null", Type::kNull, false}};
    for (const auto& literal : kLiterals) {
      if (text_.compare(pos_, literal.text.size(), literal.text) == 0) {
        pos_ += literal.text.size();
        out->type_ = literal.type;
        out->bool_ = literal.value;
        return Status::Ok();
      }
    }
    return ParseError(pos_, "invalid literal");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && text_[pos_] == '-') ++pos_;
    // Integer part: "0" or [1-9][0-9]*.
    if (AtEnd() || text_[pos_] < '0' || text_[pos_] > '9') {
      return ParseError(pos_, "expected a value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!AtEnd() && text_[pos_] == '.') {
      ++pos_;
      if (AtEnd() || text_[pos_] < '0' || text_[pos_] > '9') {
        return ParseError(pos_, "expected digits after decimal point");
      }
      while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (AtEnd() || text_[pos_] < '0' || text_[pos_] > '9') {
        return ParseError(pos_, "expected digits in exponent");
      }
      while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    out->type_ = Type::kNumber;
    out->scalar_.assign(text_, start, pos_ - start);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string JsonPath::ToString() const {
  if (parent_ == nullptr) return text_;
  std::string path = parent_->ToString();
  if (text_ != nullptr) {
    path += '.';
    path += text_;
  } else {
    path += '[';
    JsonAppendInteger(index_, &path);
    path += ']';
  }
  return path;
}

const char* JsonValue::TypeName() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "boolean";
    case Type::kNumber:
      return "number";
    case Type::kString:
      return "string";
    case Type::kArray:
      return "array";
    case Type::kObject:
      return "object";
  }
  return "unknown";
}

bool JsonValue::bool_value() const {
  QDM_CHECK(type_ == Type::kBool) << "bool_value() on a " << TypeName();
  return bool_;
}

const std::string& JsonValue::string_value() const {
  QDM_CHECK(type_ == Type::kString) << "string_value() on a " << TypeName();
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  QDM_CHECK(type_ == Type::kArray) << "array() on a " << TypeName();
  return array_;
}

const JsonValue::Members& JsonValue::members() const {
  QDM_CHECK(type_ == Type::kObject) << "members() on a " << TypeName();
  return members_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<double> JsonValue::AsDouble(const JsonPath& field) const {
  if (type_ != Type::kNumber) {
    return Status::InvalidArgument(StrFormat(
        "%s: expected a number, got %s", field.ToString().c_str(), TypeName()));
  }
  double fast = 0.0;
  if (FromCharsWhole(scalar_, &fast) && std::isfinite(fast)) return fast;
  char* end = nullptr;
  const double value = std::strtod(scalar_.c_str(), &end);
  if (end != scalar_.c_str() + scalar_.size() || !std::isfinite(value)) {
    return Status::InvalidArgument(StrFormat(
        "%s: number '%s' does not fit a finite double (NaN/Inf are not "
        "representable on the wire)",
        field.ToString().c_str(), scalar_.c_str()));
  }
  return value;
}

template <typename Int>
Result<Int> JsonValue::AsInteger(const JsonPath& field,
                                 const char* expected) const {
  if (type_ != Type::kNumber) {
    return Status::InvalidArgument(StrFormat("%s: expected %s, got %s",
                                             field.ToString().c_str(), expected,
                                             TypeName()));
  }
  Int value = 0;
  if (FromCharsWhole(scalar_, &value)) return value;
  if (!TokenIsInteger(scalar_) ||
      (std::is_unsigned_v<Int> && scalar_[0] == '-')) {
    return Status::InvalidArgument(StrFormat("%s: expected %s, got '%s'",
                                             field.ToString().c_str(), expected,
                                             scalar_.c_str()));
  }
  return Status::InvalidArgument(
      StrFormat("%s: integer '%s' out of %s range", field.ToString().c_str(),
                scalar_.c_str(), std::is_signed_v<Int> ? "int64" : "uint64"));
}

Result<int64_t> JsonValue::AsInt64(const JsonPath& field) const {
  return AsInteger<int64_t>(field, "an integer");
}

Result<uint64_t> JsonValue::AsUint64(const JsonPath& field) const {
  return AsInteger<uint64_t>(field, "an unsigned integer");
}

Result<JsonValue> JsonParse(const std::string& text) {
  return JsonParser(text).Parse();
}

void JsonAppendQuoted(const std::string& value, std::string* out) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonAppendDouble(double value, std::string* out) {
  QDM_CHECK(std::isfinite(value)) << "the wire format cannot represent NaN/Inf";
  // C++17 defines this overload as printf's "%.17g" with the same bytes.
  char buffer[32];  // "%.17g" needs at most 24: "-d.<16 digits>e-308".
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  out->append(buffer, result.ptr);
}

}  // namespace net
}  // namespace qdm
