#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::DoubleFull(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
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

// Recursive-descent parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(&value, 0);
    if (!status.ok()) {
      return status;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& message) const {
    return Status(StatusCode::kInvalidArgument,
                  "JSON parse error at offset " + std::to_string(pos_) + ": " + message);
  }

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

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseKeyword("null", out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(std::string_view keyword, JsonValue* out) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Error("invalid literal");
    }
    pos_ += keyword.size();
    if (keyword == "null") {
      out->kind = JsonValue::Kind::kNull;
    } else {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = keyword == "true";
    }
    return OkStatus();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("invalid value");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("invalid number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return OkStatus();
  }

  Status ParseHexQuad(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
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
        return Error("invalid \\u escape digit");
      }
    }
    *out = code;
    return OkStatus();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
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

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return Error("expected '\"'");
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
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
          SCODED_RETURN_IF_ERROR(ParseHexQuad(&code));
          // RFC 8259 section 7: code points outside the BMP arrive as a
          // UTF-16 surrogate pair of \u escapes. Combine the pair into the
          // supplementary code point; a surrogate half on its own has no
          // UTF-8 encoding (emitting it byte-wise would be CESU-8), so
          // unpaired surrogates are a parse error, not mojibake.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Error("high surrogate \\u escape not followed by a low surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            SCODED_RETURN_IF_ERROR(ParseHexQuad(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("high surrogate \\u escape paired with a non-surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate \\u escape");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return OkStatus();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) {
        return status;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) {
        return status;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return OkStatus();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return OkStatus();
    }
    while (true) {
      JsonValue value;
      Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) {
        return status;
      }
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return OkStatus();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) { return JsonParser(text).Parse(); }

Result<int64_t> JsonInteger(const JsonValue& value, int64_t lo, int64_t hi,
                            std::string_view what) {
  // Every double in [-2^63, 2^63) converts to int64_t; the || chain casts
  // only once the value is known to lie there.
  constexpr double kTwo63 = 9223372036854775808.0;
  double x = value.number;
  if (!value.is_number() || !std::isfinite(x) || std::trunc(x) != x || x < -kTwo63 ||
      x >= kTwo63 || static_cast<int64_t>(x) < lo || static_cast<int64_t>(x) > hi) {
    return InvalidArgumentError(std::string(what) + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int64_t>(x);
}

}  // namespace scoded
