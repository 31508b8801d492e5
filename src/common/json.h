#ifndef SCODED_COMMON_JSON_H_
#define SCODED_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace scoded {

/// Minimal streaming JSON writer (output only) for machine-readable CLI
/// output and report generation. Produces compact, valid JSON; callers
/// drive the structure (no DOM). Keys and string values are escaped per
/// RFC 8259; non-finite doubles serialise as null.
///
///   JsonWriter json;
///   json.BeginObject();
///   json.Key("violated").Bool(true);
///   json.Key("rows").BeginArray().Int(3).Int(7).EndArray();
///   json.EndObject();
///   std::string text = json.str();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Writes an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view name);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);
  /// As Double but with full round-trip precision (%.17g): parsing the
  /// emitted token recovers the exact bit pattern. Used by the wire layer,
  /// where a streamed p-value must equal the locally computed one.
  JsonWriter& DoubleFull(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// ASCII-only output mode: when enabled, every code point above U+007F is
  /// emitted as a \uXXXX escape — non-BMP code points as a UTF-16 surrogate
  /// pair, per RFC 8259 — and malformed UTF-8 input bytes become U+FFFD.
  /// Off by default (raw UTF-8 pass-through, also valid JSON).
  JsonWriter& SetAsciiOutput(bool ascii);

  /// Splices pre-rendered JSON in as one value. The caller guarantees
  /// `json` is itself valid JSON (e.g. the output of another JsonWriter).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void Escape(std::string_view value);

  std::string out_;
  // Whether the next emission at the current nesting level needs a comma.
  std::string need_comma_stack_ = "0";  // one char per depth: '0' or '1'
  bool after_key_ = false;
  bool ascii_output_ = false;
};

/// Parsed JSON value: a small DOM used to read back machine-readable
/// artefacts (trace files, metrics snapshots, bench JSON) in tests and
/// tools. Object member order is preserved.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// `value` as an integer in [lo, hi], for numbers read from untrusted
/// JSON. A JSON number is a double, so it must be finite and integral,
/// and the range is checked before converting: casting an out-of-range
/// double to an integer is undefined behaviour. Fails with
/// kInvalidArgument naming `what`.
Result<int64_t> JsonInteger(const JsonValue& value, int64_t lo, int64_t hi,
                            std::string_view what);

/// Strict RFC 8259 parser for the subset this codebase emits: all value
/// kinds, string escapes including \uXXXX (BMP code points, encoded back
/// to UTF-8), and a nesting-depth limit of 256. Trailing garbage after
/// the top-level value is an error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace scoded

#endif  // SCODED_COMMON_JSON_H_
