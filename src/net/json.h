// A minimal, dependency-free JSON value: the one way the program writes
// JSON (wire bodies, the obs exporters, /statusz and the other
// introspection pages, profiles, bench rows) and the parser for the
// bodies it reads back.
//
// Scope: parse, navigate, build, render. Not a general-purpose JSON
// library:
//
//   * Numbers remember whether they were written as integers. Integers
//     round-trip through int64 (sequence ids are int64 and must not pass
//     through a double); unsigned counts enter through Uint, which
//     saturates, so no count renders negative. Doubles render in the
//     shortest form that strtod parses back to the bit-identical value
//     (AppendJsonNumber) — the property the router ≡ in-process-engine
//     guarantee rests on (epsilon, kNN distances, and MBR coordinates all
//     cross the wire as decimal text).
//   * Every parsed number is finite: one that overflows a double (1e999,
//     a 400-digit integer) is an error, while underflow to 0 or a
//     denormal is accepted. Rendering writes non-finite doubles as null,
//     so no decoder of a wire body sees a NaN or an infinity.
//   * Object members keep insertion order (stable rendering; tests can
//     compare strings), and lookups are linear — documents have a
//     handful of keys per object.
//   * Parse depth is bounded (kMaxDepth) so a hostile peer cannot blow
//     the stack, and input must be one complete value (trailing garbage
//     is an error).

#ifndef WARPINDEX_NET_JSON_H_
#define WARPINDEX_NET_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace warpindex {

// The one JSON string escaper: appends `text` as a quoted JSON string
// literal (quote, backslash, \n, \r, \t escaped; other control bytes as
// \u00XX).
void AppendJsonEscaped(std::string_view text, std::string* out);

// The one double formatter: appends the shortest decimal text that strtod
// parses back to the bit-identical double (std::to_chars; -0.0 renders
// "-0"), or null for a NaN or an infinity. JsonValue::Render and the
// Prometheus text writers use it.
void AppendJsonNumber(double value, std::string* out);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  // Constructors via factories so call sites read as the JSON they build.
  JsonValue() = default;  // null
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t i);
  // An unsigned count, saturating at INT64_MAX.
  static JsonValue Uint(uint64_t n);
  static JsonValue Double(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  // Value accessors (loose: the zero value of the wrong kind, never a
  // crash — wire handlers validate presence with Find/has first).
  bool AsBool() const { return kind_ == Kind::kBool && bool_; }
  // kDouble truncates toward zero, saturating beyond int64 (NaN: 0);
  // other kinds 0.
  int64_t AsInt() const;
  // Checked integer: stores the value and returns true only for a number
  // written as an integer; false (and *out untouched) for a double, even
  // 3.0, and for every other kind. For values that must be exact ids.
  bool TryAsInt(int64_t* out) const;
  double AsDouble() const;   // kInt widens; others 0.0
  const std::string& AsString() const { return string_; }

  // ---- Arrays.
  void Add(JsonValue v);
  size_t size() const { return items_.size(); }
  const JsonValue& at(size_t i) const { return items_[i]; }
  const std::vector<JsonValue>& items() const { return items_; }

  // ---- Objects.
  void Set(const std::string& key, JsonValue v);
  // Null when missing (or when this is not an object).
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  // Typed lookups with fallbacks, for terse handler code.
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  // Compact rendering (no whitespace). Integers render as integers;
  // doubles through AppendJsonNumber.
  std::string Render() const;
  void RenderTo(std::string* out) const;

  // Parses one complete JSON value (trailing non-whitespace is an
  // error). InvalidArgument on malformed input with a byte offset.
  static Status Parse(const std::string& text, JsonValue* out);

 private:
  static constexpr int kMaxDepth = 64;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace warpindex

#endif  // WARPINDEX_NET_JSON_H_
