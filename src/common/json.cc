#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/string_util.h"

namespace scoded {

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows its key
  }
  if (!need_comma_stack_.empty() && need_comma_stack_.back() == '1') {
    out_.push_back(',');
  }
  if (!need_comma_stack_.empty()) {
    need_comma_stack_.back() = '1';
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  need_comma_stack_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  need_comma_stack_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  MaybeComma();
  Escape(name);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  Escape(value);
  return *this;
}

namespace {

template <typename Int>
void AppendInteger(std::string& out, Int value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

// Appends what printf("%.<precision>g") prints for a finite `value`.
// Integers below `integral_bound` (at most 10^precision) print every digit
// and no point either way, so they take the cheaper integer conversion;
// -0.0 prints its sign and does not.
void AppendGeneral(std::string& out, double value, int precision, double integral_bound) {
  if (std::abs(value) < integral_bound && std::trunc(value) == value &&
      !(value == 0.0 && std::signbit(value))) {
    AppendInteger(out, static_cast<int64_t>(value));
    return;
  }
  char buffer[32];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value,
                                   std::chars_format::general, precision)
                         .ptr);
}

}  // namespace

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  AppendInteger(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  MaybeComma();
  AppendInteger(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  AppendGeneral(out_, value, 12, 1e12);
  return *this;
}

JsonWriter& JsonWriter::DoubleFull(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  AppendGeneral(out_, value, 17, 1e15);
  return *this;
}

JsonWriter& JsonWriter::SetAsciiOutput(bool ascii) {
  ascii_output_ = ascii;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_ += json;
  return *this;
}

namespace {

// Emits a \uXXXX escape; code points beyond the BMP become the UTF-16
// surrogate pair RFC 8259 prescribes (one raw \u of the supplementary
// value would be rejected by any conforming parser, including ours).
void AppendUnicodeEscape(std::string* out, uint32_t code) {
  char buffer[16];
  if (code >= 0x10000) {
    uint32_t v = code - 0x10000;
    std::snprintf(buffer, sizeof(buffer), "\\u%04x\\u%04x", 0xD800 + (v >> 10),
                  0xDC00 + (v & 0x3FF));
  } else {
    std::snprintf(buffer, sizeof(buffer), "\\u%04x", code);
  }
  *out += buffer;
}

// Decodes the UTF-8 sequence starting at value[*i] and advances past it.
// Malformed input (stray continuation byte, truncated sequence, overlong
// form landing in the surrogate range) consumes one byte and decodes as
// U+FFFD so the writer always produces valid JSON.
uint32_t DecodeUtf8(std::string_view value, size_t* i) {
  constexpr uint32_t kReplacement = 0xFFFD;
  unsigned char lead = static_cast<unsigned char>(value[*i]);
  size_t len = lead < 0x80 ? 1 : lead < 0xC2 ? 0 : lead < 0xE0 ? 2 : lead < 0xF0 ? 3
               : lead < 0xF5 ? 4 : 0;
  if (len == 0 || *i + len > value.size()) {
    ++*i;
    return kReplacement;
  }
  uint32_t code = len == 1 ? lead : lead & (0x7F >> len);
  for (size_t k = 1; k < len; ++k) {
    unsigned char cont = static_cast<unsigned char>(value[*i + k]);
    if ((cont & 0xC0) != 0x80) {
      ++*i;
      return kReplacement;
    }
    code = (code << 6) | (cont & 0x3F);
  }
  // Reject overlong encodings and surrogate-range/out-of-range values.
  static constexpr uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (code < kMinForLen[len] || (code >= 0xD800 && code <= 0xDFFF) || code > 0x10FFFF) {
    ++*i;
    return kReplacement;
  }
  *i += len;
  return code;
}

}  // namespace

void JsonWriter::Escape(std::string_view value) {
  out_.push_back('"');
  for (size_t i = 0; i < value.size();) {
    char c = value[i];
    switch (c) {
      case '"':
        out_ += "\\\"";
        ++i;
        continue;
      case '\\':
        out_ += "\\\\";
        ++i;
        continue;
      case '\n':
        out_ += "\\n";
        ++i;
        continue;
      case '\r':
        out_ += "\\r";
        ++i;
        continue;
      case '\t':
        out_ += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    unsigned char byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      AppendUnicodeEscape(&out_, byte);
      ++i;
    } else if (byte < 0x80 || !ascii_output_) {
      out_.push_back(c);
      ++i;
    } else {
      AppendUnicodeEscape(&out_, DecodeUtf8(value, &i));
    }
  }
  out_.push_back('"');
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 256;

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

bool JsonReader::Fail(const std::string& message) {
  if (status_.ok()) {
    status_ = Status(StatusCode::kInvalidArgument,
                     "JSON parse error at offset " + std::to_string(pos_) + ": " + message);
  }
  return false;
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

JsonValue::Kind JsonReader::Begin() {
  if (!status_.ok()) {
    return JsonValue::Kind::kNull;
  }
  // The depth is checked before the whitespace is skipped, so a too-deep
  // value is reported where its container's separator ends.
  if (open_.size() > kMaxDepth) {
    Fail("nesting too deep");
    return JsonValue::Kind::kNull;
  }
  SkipWhitespace();
  if (pos_ >= text_.size()) {
    Fail("unexpected end of input");
    return JsonValue::Kind::kNull;
  }
  char c = text_[pos_];
  switch (c) {
    case '{':
    case '[':
      ++pos_;
      open_.push_back(c);
      first_ = true;
      return c == '{' ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    case '"':
      ReadString(&string_);
      return JsonValue::Kind::kString;
    case 't':
    case 'f':
      boolean_ = c == 't';
      ReadKeyword(boolean_ ? "true" : "false");
      return JsonValue::Kind::kBool;
    case 'n':
      ReadKeyword("null");
      return JsonValue::Kind::kNull;
    default:
      ReadNumber();
      return JsonValue::Kind::kNumber;
  }
}

bool JsonReader::NextElement() {
  if (!status_.ok()) {
    return false;
  }
  SkipWhitespace();
  if (first_) {
    first_ = false;
  } else if (Consume(',')) {
    return true;
  } else if (pos_ >= text_.size() || text_[pos_] != ']') {
    return Fail("expected ',' or ']' in array");
  }
  if (Consume(']')) {
    open_.pop_back();
    return false;
  }
  return true;
}

bool JsonReader::NextMember() {
  if (!status_.ok()) {
    return false;
  }
  SkipWhitespace();
  if (first_) {
    first_ = false;
    if (Consume('}')) {
      open_.pop_back();
      return false;
    }
  } else if (Consume('}')) {
    open_.pop_back();
    return false;
  } else if (!Consume(',')) {
    return Fail("expected ',' or '}' in object");
  }
  SkipWhitespace();
  if (!ReadString(&key_)) {
    return false;
  }
  SkipWhitespace();
  return Consume(':') || Fail("expected ':' after object key");
}

void JsonReader::Skip(JsonValue::Kind kind) {
  if (kind != JsonValue::Kind::kArray && kind != JsonValue::Kind::kObject) {
    return;
  }
  // Reads until the container Begin() opened closes; the containers inside
  // it open and close on the same stack.
  const size_t depth = open_.size() - 1;
  while (status_.ok() && open_.size() > depth) {
    if (open_.back() == '[' ? NextElement() : NextMember()) {
      Begin();
    }
  }
}

void JsonReader::Read(JsonValue::Kind kind, JsonValue* out) {
  out->kind = kind;
  switch (kind) {
    case JsonValue::Kind::kNull:
      break;
    case JsonValue::Kind::kBool:
      out->bool_value = boolean_;
      break;
    case JsonValue::Kind::kNumber:
      out->number = number_;
      break;
    case JsonValue::Kind::kString:
      out->string_value = std::move(string_);
      break;
    case JsonValue::Kind::kArray:
      while (NextElement()) {
        out->array.emplace_back();
        Read(Begin(), &out->array.back());
      }
      break;
    case JsonValue::Kind::kObject:
      while (NextMember()) {
        std::string name = std::move(key_);
        JsonValue value;
        Read(Begin(), &value);
        out->object.emplace_back(std::move(name), std::move(value));
      }
      break;
  }
}

const Status& JsonReader::End() {
  SkipWhitespace();
  if (status_.ok() && pos_ != text_.size()) {
    Fail("trailing characters after the top-level value");
  }
  return status_;
}

bool JsonReader::ReadKeyword(std::string_view keyword) {
  if (text_.substr(pos_, keyword.size()) != keyword) {
    return Fail("invalid literal");
  }
  pos_ += keyword.size();
  return true;
}

bool JsonReader::ReadNumber() {
  const size_t start = pos_;
  Consume('-');
  const size_t digits = pos_;
  // Up to 15 digits and nothing else is an integer below 10^15, exact as a
  // double. Categorical codes are such tokens, and adding them up is cheaper
  // than from_chars.
  int64_t integer = 0;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9' &&
         pos_ - digits < 15) {
    integer = integer * 10 + (text_[pos_] - '0');
    ++pos_;
  }
  if (pos_ > digits && (pos_ == text_.size() || !IsNumberChar(text_[pos_]))) {
    number_ = static_cast<double>(integer);
    if (digits != start) {
      number_ = -number_;  // "-0" is -0.0, as strtod reads it
    }
    return true;
  }
  while (pos_ < text_.size() && IsNumberChar(text_[pos_])) {
    ++pos_;
  }
  if (pos_ == start) {
    return Fail("invalid value");
  }
  // The token holds no whitespace, so ParseDouble reads it as strtod does.
  std::string_view token = text_.substr(start, pos_ - start);
  std::optional<double> value = ParseDouble(token);
  if (!value) {
    return Fail(std::string("invalid number '").append(token).append("'"));
  }
  number_ = *value;
  return true;
}

bool JsonReader::ReadHexQuad(uint32_t* out) {
  if (pos_ + 4 > text_.size()) {
    return Fail("truncated \\u escape");
  }
  uint32_t code = 0;
  for (int i = 0; i < 4; ++i) {
    char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<uint32_t>(h - 'A' + 10);
    } else {
      return Fail("invalid \\u escape digit");
    }
  }
  *out = code;
  return true;
}

bool JsonReader::ReadString(std::string* out) {
  if (!Consume('"')) {
    return Fail("expected '\"'");
  }
  out->clear();
  while (pos_ < text_.size()) {
    // Copy the run before the next quote or backslash in one append.
    size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
      ++run;
    }
    out->append(text_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ == text_.size()) {
      break;
    }
    if (text_[pos_++] == '"') {
      return true;
    }
    if (pos_ >= text_.size()) {
      break;
    }
    char escape = text_[pos_++];
    switch (escape) {
      case '"':
      case '\\':
      case '/':
        out->push_back(escape);
        break;
      case 'b':
        out->push_back('\b');
        break;
      case 'f':
        out->push_back('\f');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u': {
        uint32_t code = 0;
        if (!ReadHexQuad(&code)) {
          return false;
        }
        // RFC 8259 section 7: code points outside the BMP arrive as a
        // UTF-16 surrogate pair of \u escapes. Combine the pair into the
        // supplementary code point; a surrogate half on its own has no
        // UTF-8 encoding (emitting it byte-wise would be CESU-8), so
        // unpaired surrogates are a parse error, not mojibake.
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
            return Fail("high surrogate \\u escape not followed by a low surrogate");
          }
          pos_ += 2;
          uint32_t low = 0;
          if (!ReadHexQuad(&low)) {
            return false;
          }
          if (low < 0xDC00 || low > 0xDFFF) {
            return Fail("high surrogate \\u escape paired with a non-surrogate");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return Fail("unpaired low surrogate \\u escape");
        }
        AppendUtf8(code, out);
        break;
      }
      default:
        return Fail("invalid escape character");
    }
  }
  return Fail("unterminated string");
}

Result<JsonValue> ParseJson(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  reader.Read(reader.Begin(), &value);
  SCODED_RETURN_IF_ERROR(reader.End());
  return value;
}

Result<int64_t> JsonInteger(const JsonValue& value, int64_t lo, int64_t hi,
                            std::string_view what) {
  return JsonInteger(value.is_number() ? value.number : std::nan(""), lo, hi, what);
}

Result<int64_t> JsonInteger(double value, int64_t lo, int64_t hi, std::string_view what) {
  // Every double in [-2^63, 2^63) converts to int64_t; the || chain casts
  // only once the value is known to lie there.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!std::isfinite(value) || std::trunc(value) != value || value < -kTwo63 ||
      value >= kTwo63 || static_cast<int64_t>(value) < lo || static_cast<int64_t>(value) > hi) {
    return InvalidArgumentError(std::string(what) + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int64_t>(value);
}

}  // namespace scoded
