#include "net/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace warpindex {
namespace {

// Recursive-descent parser over [p, end). Reports errors as byte offsets
// into the original text.
class Parser {
 public:
  Parser(const char* begin, const char* end) : begin_(begin), p_(begin), end_(end) {}

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > 64) {
      return Error("nesting too deep");
    }
    SkipSpace();
    if (p_ >= end_) {
      return Error("unexpected end of input");
    }
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        WARPINDEX_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (Literal("true")) {
          *out = JsonValue::Bool(true);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'f':
        if (Literal("false")) {
          *out = JsonValue::Bool(false);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'n':
        if (Literal("null")) {
          *out = JsonValue::Null();
          return Status::Ok();
        }
        return Error("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ExpectEnd() {
    SkipSpace();
    if (p_ != end_) {
      return Error("trailing characters after value");
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) {
    return Status::InvalidArgument(
        "json: " + what + " at byte " + std::to_string(p_ - begin_));
  }

  void SkipSpace() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (static_cast<size_t>(end_ - p_) < len ||
        std::memcmp(p_, word, len) != 0) {
      return false;
    }
    p_ += len;
    return true;
  }

  Status ParseString(std::string* out) {
    ++p_;  // opening quote
    out->clear();
    while (p_ < end_) {
      const char c = *p_++;
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ >= end_) {
        break;
      }
      const char esc = *p_++;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
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
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (end_ - p_ < 4) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
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
          // The bodies this parser sees are ASCII plus pass-through
          // UTF-8; encode the code point as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ < end_ && *p_ == '+') {
      // JSON numbers never begin with '+'; our renderer never emits it.
      return Error("numbers may not begin with '+'");
    }
    if (p_ < end_ && *p_ == '-') {
      ++p_;
    }
    bool integral = true;
    while (p_ < end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') {
        integral = false;
      }
      ++p_;
    }
    if (p_ == start) {
      return Error("expected a value");
    }
    const char* digits = (*start == '-') ? start + 1 : start;
    if (p_ - digits >= 2 && digits[0] == '0' &&
        std::isdigit(static_cast<unsigned char>(digits[1]))) {
      return Error("numbers may not have leading zeros");
    }
    const std::string text(start, p_);
    errno = 0;
    if (integral) {
      char* parse_end = nullptr;
      const long long v = std::strtoll(text.c_str(), &parse_end, 10);
      if (parse_end == text.c_str() + text.size() && errno == 0) {
        *out = JsonValue::Int(static_cast<int64_t>(v));
        return Status::Ok();
      }
      // Out of int64 range: fall through to double.
      errno = 0;
    }
    char* parse_end = nullptr;
    const double d = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) {
      return Error("malformed number '" + text + "'");
    }
    if (std::isinf(d)) {
      return Error("number out of range");
    }
    *out = JsonValue::Double(d);
    return Status::Ok();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++p_;  // '['
    *out = JsonValue::Array();
    SkipSpace();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return Status::Ok();
    }
    for (;;) {
      JsonValue item;
      WARPINDEX_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->Add(std::move(item));
      SkipSpace();
      if (p_ >= end_) {
        return Error("unterminated array");
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return Status::Ok();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++p_;  // '{'
    *out = JsonValue::Object();
    SkipSpace();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      if (p_ >= end_ || *p_ != '"') {
        return Error("expected object key");
      }
      std::string key;
      WARPINDEX_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (p_ >= end_ || *p_ != ':') {
        return Error("expected ':'");
      }
      ++p_;
      JsonValue value;
      WARPINDEX_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipSpace();
      if (p_ >= end_) {
        return Error("unterminated object");
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return Status::Ok();
      }
      return Error("expected ',' or '}'");
    }
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

void AppendJsonEscaped(std::string_view text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; the wire contract is "finite or null"
    // and readers treat null as "absent".
    out->append("null");
    return;
  }
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308"
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Uint(uint64_t n) {
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  return Int(static_cast<int64_t>(n < kMax ? n : kMax));
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

int64_t JsonValue::AsInt() const {
  if (kind_ == Kind::kInt) {
    return int_;
  }
  if (kind_ == Kind::kDouble) {
    // Casting a NaN or a double beyond int64 is undefined: NaN reads 0
    // and out-of-range values saturate.
    return std::isnan(double_)    ? 0
           : double_ >= 0x1p63   ? std::numeric_limits<int64_t>::max()
           : double_ < -0x1p63   ? std::numeric_limits<int64_t>::min()
                                 : static_cast<int64_t>(double_);
  }
  return 0;
}

double JsonValue::AsDouble() const {
  if (kind_ == Kind::kDouble) {
    return double_;
  }
  if (kind_ == Kind::kInt) {
    return static_cast<double>(int_);
  }
  return 0.0;
}

void JsonValue::Add(JsonValue v) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  kind_ = Kind::kObject;
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

bool JsonValue::TryAsInt(int64_t* out) const {
  if (kind_ != Kind::kInt) {
    return false;
  }
  *out = int_;
  return true;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : fallback;
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind() == Kind::kString ? v->AsString()
                                                    : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind() == Kind::kBool ? v->AsBool() : fallback;
}

void JsonValue::RenderTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kInt: {
      char buf[24];
      const std::to_chars_result result =
          std::to_chars(buf, buf + sizeof(buf), int_);
      out->append(buf, result.ptr);
      return;
    }
    case Kind::kDouble:
      AppendJsonNumber(double_, out);
      return;
    case Kind::kString:
      AppendJsonEscaped(string_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        items_[i].RenderTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        AppendJsonEscaped(members_[i].first, out);
        out->push_back(':');
        members_[i].second.RenderTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Render() const {
  std::string out;
  RenderTo(&out);
  return out;
}

Status JsonValue::Parse(const std::string& text, JsonValue* out) {
  Parser parser(text.data(), text.data() + text.size());
  WARPINDEX_RETURN_IF_ERROR(parser.ParseValue(out, 0));
  return parser.ExpectEnd();
}

}  // namespace warpindex
