#include "common/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace medsync {

namespace {
const Json& NullJson() {
  static const Json* kNull = new Json();
  return *kNull;
}
}  // namespace

bool Json::AsBool() const {
  assert(is_bool());
  return bool_;
}

int64_t Json::AsInt() const {
  assert(is_int());
  return int_;
}

double Json::AsDouble() const {
  assert(is_number());
  return is_int() ? static_cast<double>(int_) : double_;
}

const std::string& Json::AsString() const {
  assert(is_string());
  return string_;
}

const Json::Array& Json::AsArray() const {
  assert(is_array());
  return array_;
}

Json::Array& Json::AsArray() {
  assert(is_array());
  return array_;
}

const Json::Object& Json::AsObject() const {
  assert(is_object());
  return object_;
}

Json::Object& Json::AsObject() {
  assert(is_object());
  return object_;
}

bool Json::Has(std::string_view key) const {
  return is_object() && object_.find(std::string(key)) != object_.end();
}

const Json& Json::At(std::string_view key) const {
  if (!is_object()) return NullJson();
  auto it = object_.find(std::string(key));
  if (it == object_.end()) return NullJson();
  return it->second;
}

Json& Json::Set(std::string_view key, Json value) {
  if (is_null()) type_ = Type::kObject;
  assert(is_object());
  object_[std::string(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  if (is_null()) type_ = Type::kArray;
  assert(is_array());
  array_.push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

Result<bool> Json::GetBool(std::string_view key) const {
  const Json& v = At(key);
  if (!v.is_bool()) {
    return Status::InvalidArgument(StrCat("missing bool field '", key, "'"));
  }
  return v.AsBool();
}

Result<int64_t> Json::GetInt(std::string_view key) const {
  const Json& v = At(key);
  if (!v.is_int()) {
    return Status::InvalidArgument(StrCat("missing int field '", key, "'"));
  }
  return v.AsInt();
}

Result<double> Json::GetDouble(std::string_view key) const {
  const Json& v = At(key);
  if (!v.is_number()) {
    return Status::InvalidArgument(StrCat("missing number field '", key, "'"));
  }
  return v.AsDouble();
}

Result<std::string> Json::GetString(std::string_view key) const {
  const Json& v = At(key);
  if (!v.is_string()) {
    return Status::InvalidArgument(StrCat("missing string field '", key, "'"));
  }
  return v.AsString();
}

namespace {

/// Whether `c` needs an escape sequence inside a JSON string.
bool NeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

size_t EscapedStringSize(const std::string& s) {
  size_t size = 2;  // surrounding quotes
  for (char c : s) {
    switch (c) {
      case '"':
      case '\\':
      case '\n':
      case '\r':
      case '\t':
      case '\b':
      case '\f':
        size += 2;
        break;
      default:
        size += static_cast<unsigned char>(c) < 0x20 ? 6 : 1;  // \uXXXX
    }
  }
  return size;
}

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::AppendInt(std::string* out, int64_t value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void Json::AppendDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";  // JSON has no Inf/NaN
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void Json::AppendString(std::string* out, std::string_view value) {
  out->push_back('"');
  size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (size_t i = 0; i < value.size(); ++i) {
    const char c = value[i];
    if (!NeedsEscape(c)) continue;
    out->append(value.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
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
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(value.data() + run, value.size() - run);
  out->push_back('"');
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      AppendInt(out, int_);
      return;
    case Type::kDouble:
      AppendDouble(out, double_);
      return;
    case Type::kString:
      AppendString(out, string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        AppendIndent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) AppendIndent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendIndent(out, indent, depth + 1);
        AppendString(out, key);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) AppendIndent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

size_t Json::SerializedSize() const {
  // Mirrors compact DumpTo exactly; numbers still go through snprintf
  // because their printed width is value-dependent.
  switch (type_) {
    case Type::kNull:
      return 4;
    case Type::kBool:
      return bool_ ? 4 : 5;
    case Type::kInt: {
      char buf[32];
      return static_cast<size_t>(std::snprintf(
          buf, sizeof(buf), "%lld", static_cast<long long>(int_)));
    }
    case Type::kDouble: {
      if (!std::isfinite(double_)) return 4;  // "null"
      char buf[40];
      return static_cast<size_t>(
          std::snprintf(buf, sizeof(buf), "%.17g", double_));
    }
    case Type::kString:
      return EscapedStringSize(string_);
    case Type::kArray: {
      size_t size = 2;  // brackets
      if (!array_.empty()) size += array_.size() - 1;  // commas
      for (const Json& v : array_) size += v.SerializedSize();
      return size;
    }
    case Type::kObject: {
      size_t size = 2;  // braces
      if (!object_.empty()) size += object_.size() - 1;  // commas
      for (const auto& [key, value] : object_) {
        size += EscapedStringSize(key) + 1 + value.SerializedSize();  // colon
      }
      return size;
    }
  }
  return 0;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) {
    // Allow int/double numeric comparison.
    if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
    return false;
  }
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kInt:
      return a.int_ == b.int_;
    case Json::Type::kDouble:
      return a.double_ == b.double_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser.
class Parser {
 public:
  Parser(std::string_view text, Json::ParseLimits limits, bool wire)
      : text_(text), limits_(limits), wire_(wire) {}

  Result<Json> Parse() {
    SkipWhitespace();
    MEDSYNC_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    std::string message =
        StrCat("JSON parse error at offset ", pos_, ": ", what);
    // On the wire path the malformed bytes indict the stream, not the
    // caller's arguments.
    if (wire_) return Status::Corruption(std::move(message));
    return Status::InvalidArgument(std::move(message));
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

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (depth_ > limits_.max_depth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        MEDSYNC_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Json(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject() {
    ++depth_;
    Consume('{');
    Json::Object obj;
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return Json(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key");
      }
      MEDSYNC_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      MEDSYNC_ASSIGN_OR_RETURN(Json value, ParseValue());
      obj[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    --depth_;
    return Json(std::move(obj));
  }

  Result<Json> ParseArray() {
    ++depth_;
    Consume('[');
    Json::Array arr;
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return Json(std::move(arr));
    }
    while (true) {
      SkipWhitespace();
      MEDSYNC_ASSIGN_OR_RETURN(Json value, ParseValue());
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    --depth_;
    return Json(std::move(arr));
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
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
            MEDSYNC_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
            // UTF-16 surrogate pairs must be combined into one code point;
            // emitting them as two 3-byte sequences (CESU-8) produces
            // invalid UTF-8 that round-trips differently than the sender
            // wrote it. Unpaired surrogates are malformed input.
            if (code >= 0xdc00 && code <= 0xdfff) {
              return Error("unpaired low surrogate");
            }
            if (code >= 0xd800 && code <= 0xdbff) {
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate");
              }
              pos_ += 2;
              MEDSYNC_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
              if (low < 0xdc00 || low > 0xdfff) {
                return Error("unpaired high surrogate");
              }
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else if (code < 0x10000) {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xf0 | (code >> 18)));
              out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return Error("unknown escape character");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    return code;
  }

  bool ConsumeDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  Result<Json> ParseNumber() {
    // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
    // The previous permissive scan ("any of 0-9.eE+-") accepted "+5",
    // ".5", "1.", and "01" — strtod would then quietly parse a value the
    // sender never wrote, which on the wire path is a misparse of hostile
    // bytes, not a convenience.
    size_t start = pos_;
    Consume('-');
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("invalid number");  // leading zero
      }
    } else if (!ConsumeDigits()) {
      return Error("invalid number");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!ConsumeDigits()) return Error("invalid number");
      is_double = true;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Error("invalid number");
      is_double = true;
    }
    std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<int64_t>(v));
      }
      // Fall through to double on overflow.
    }
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    return Json(d);
  }

  std::string_view text_;
  Json::ParseLimits limits_;
  bool wire_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text, ParseLimits{}, /*wire=*/false).Parse();
}

Result<Json> Json::ParseWire(std::string_view text,
                             const ParseLimits& limits) {
  return Parser(text, limits, /*wire=*/true).Parse();
}

}  // namespace medsync
