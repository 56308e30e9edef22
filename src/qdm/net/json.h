#ifndef QDM_NET_JSON_H_
#define QDM_NET_JSON_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdm/common/check.h"
#include "qdm/common/status.h"

namespace qdm {
namespace net {

/// The dotted path naming a value in decode error messages, such as
/// "request.qubo.quadratic[17][2]": a root string followed by ".key" and
/// "[index]" steps. It is spelled out only when a message needs it, so a
/// successful decode formats no paths. Roots and keys are string literals;
/// a step refers to the path it extends, so it must not outlive it: keep
/// each one in a named local, or use it within one full expression.
class JsonPath {
 public:
  JsonPath(const char* root) : text_(root) {}  // NOLINT

  JsonPath Key(const char* key) const { return JsonPath(this, key, 0); }
  JsonPath Index(size_t index) const { return JsonPath(this, nullptr, index); }

  /// The key this path ends in: the last ".key" step, or the root (nullptr
  /// after an "[index]" step).
  const char* key() const { return text_; }

  std::string ToString() const;

 private:
  JsonPath(const JsonPath* parent, const char* key, size_t index)
      : parent_(parent), text_(key), index_(index) {}

  const JsonPath* parent_ = nullptr;
  const char* text_;  // The root, or this step's key (nullptr: an index).
  size_t index_ = 0;
};

/// Minimal JSON document model for the qdm wire protocol (qdm/net/wire.h).
/// Deliberately dependency-free and exception-free: parsing failures are
/// InvalidArgument Statuses with byte offsets, and type misuse of an
/// already-parsed value is a programming error (QDM_CHECK), matching the
/// rest of the toolkit.
///
/// Numbers are stored as their RAW TOKEN TEXT and converted on demand
/// (AsDouble / AsInt64 / AsUint64). That is what makes the wire format
/// bit-exact: a double encoded as "%.17g" prints it survives parse ->
/// conversion unchanged, and a uint64 seed is never squeezed through a
/// double (which would lose precision above 2^53). Conversion rejects
/// overflow (e.g. "1e999" -> non-finite) so NaN/Inf can never enter through
/// the wire.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Object members keep their textual order (encode/decode stability).
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  Type type() const { return type_; }

  /// Stable lowercase name of the value's type ("object", "number", ...)
  /// for error messages.
  const char* TypeName() const;

  bool bool_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  const Members& members() const;

  /// Object lookup; nullptr when absent (or when this is not an object —
  /// callers type-check first for precise error messages).
  const JsonValue* Find(std::string_view key) const;

  /// Number conversions. `field` is the dotted path used in the error
  /// message ("qubo.linear[3]"). AsDouble rejects non-finite results
  /// (overflowing literals); the integer forms reject fractions, exponents,
  /// out-of-range magnitudes, and (for uint64) negative values. They
  /// convert with std::from_chars, which takes every in-range integer
  /// token. AsDouble falls back to strtod for any token from_chars refuses
  /// (such as 1e-400, which strtod flushes to zero), so it accepts exactly
  /// what strtod accepts, with the same values.
  Result<double> AsDouble(const JsonPath& field) const;
  Result<int64_t> AsInt64(const JsonPath& field) const;
  Result<uint64_t> AsUint64(const JsonPath& field) const;

 private:
  friend class JsonParser;  // Fills each value in place.

  /// AsInt64 and AsUint64: `expected` names the type in their messages.
  template <typename Int>
  Result<Int> AsInteger(const JsonPath& field, const char* expected) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  // Number token or string payload.
  std::vector<JsonValue> array_;
  Members members_;
};

/// Parses one complete JSON document (trailing garbage is an error).
/// Accepts the full RFC 8259 grammar — objects, arrays, strings with
/// escapes incl. \uXXXX (surrogate pairs), numbers, true/false/null — with
/// a nesting-depth limit of 64. Errors are InvalidArgument with the byte
/// offset and what was expected.
Result<JsonValue> JsonParse(const std::string& text);

/// Appends `value` quoted and escaped per JSON to `out`.
void JsonAppendQuoted(const std::string& value, std::string* out);

/// Appends `value` byte for byte as "%.17g" prints it (17 significant
/// digits, which parse back to the identical bits), through std::to_chars
/// rather than printf. `value` must be finite (QDM_CHECK): the wire format
/// has no representation for NaN/Inf by design.
void JsonAppendDouble(double value, std::string* out);

/// Appends the decimal form of an integer, as "%d" / "%lld" / "%llu" print
/// it.
template <typename Int>
void JsonAppendInteger(Int value, std::string* out) {
  char buffer[24];  // Enough for any 64-bit value and its sign.
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

}  // namespace net
}  // namespace qdm

#endif  // QDM_NET_JSON_H_
