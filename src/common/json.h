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
/// As above for a number already read (JsonReader::number()).
Result<int64_t> JsonInteger(double value, int64_t lo, int64_t hi, std::string_view what);

/// Pull reader over JSON text: the one tokenizer behind ParseJson, also
/// used on its own to read a large value straight into typed storage with
/// no DOM (serve::ReadBatchJson). It accepts what ParseJson accepts and
/// fails with the same messages at the same offsets.
///
///   JsonReader reader(text);
///   if (reader.Begin() == JsonValue::Kind::kObject) {
///     while (reader.NextMember()) {
///       // reader.key() names the member; Begin() starts its value, and
///       // Skip() or Read() finishes it.
///     }
///   }
///   SCODED_RETURN_IF_ERROR(reader.End());
///
/// The first syntax error is kept in status(). From then on nothing more
/// is read: Begin() returns kNull and NextElement() / NextMember() return
/// false, so every loop over the text ends, and the caller checks status()
/// (or End()) once instead of after every call.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Starts the next value and returns its kind. A scalar is read whole
  /// (number(), boolean(), string()); an array or object is opened, and its
  /// contents follow through NextElement() or NextMember().
  JsonValue::Kind Begin();

  /// In the innermost open array: true when an element follows (start it
  /// with Begin()), false once the array has closed.
  bool NextElement();

  /// In the innermost open object: true when a member follows (its name is
  /// key(); start its value with Begin()), false once the object has closed.
  bool NextMember();

  /// Finishes the value Begin() returned `kind` for, discarding it.
  void Skip(JsonValue::Kind kind);

  /// Finishes the value Begin() returned `kind` for into `out`.
  void Read(JsonValue::Kind kind, JsonValue* out);

  /// Only whitespace may follow the top-level value. Returns status().
  const Status& End();

  const Status& status() const { return status_; }
  double number() const { return number_; }
  bool boolean() const { return boolean_; }
  /// The last string value read; callers may move it out.
  std::string& string() { return string_; }
  const std::string& key() const { return key_; }

 private:
  // Records the first error, at the current offset; returns false.
  bool Fail(const std::string& message);
  void SkipWhitespace();
  bool Consume(char c);
  bool ReadKeyword(std::string_view keyword);
  bool ReadNumber();
  bool ReadHexQuad(uint32_t* out);
  bool ReadString(std::string* out);

  std::string_view text_;
  size_t pos_ = 0;
  Status status_;
  // One char per open container, '[' or '{'; its size is the nesting depth.
  std::string open_;
  // Whether the innermost container was opened and nothing read from it yet.
  bool first_ = false;
  double number_ = 0.0;
  bool boolean_ = false;
  std::string string_;
  std::string key_;
};

/// Strict RFC 8259 parser for the subset this codebase emits: all value
/// kinds, string escapes including \uXXXX (BMP code points, encoded back
/// to UTF-8), and a nesting-depth limit of 256. Trailing garbage after
/// the top-level value is an error. A number token is whatever run of
/// digits, signs, dots and exponent marks follows, read as strtod reads it.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace scoded

#endif  // SCODED_COMMON_JSON_H_
