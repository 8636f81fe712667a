// Minimal JSON for the obs exporters and their readers. The writers are
// the one set every exporter in src/obs uses (the Prometheus format uses
// the number writers). The parser is a recursive descent, just enough for
// trace_inspect, bench_diff and the tests to read back the files this
// library writes; integer literals up to int64 stay exact (nanosecond
// timestamps must not round-trip through double), and nesting is capped
// at kMaxDepth so hostile input cannot exhaust the stack.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dyncdn::obs::json {

// Writers append to `out`. Doubles use %.17g, which round-trips exactly;
// a string is quoted, with control bytes as \n, \r, \t or \u00xx. They
// are inline so that a program which only writes links no parser.
inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

inline void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

inline void append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;  // exact when is_integer
  bool is_integer = false;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* get(std::string_view key) const;

  // Convenience accessors with defaults. as_int truncates a fraction, and
  // gives the fallback for a non-number or a number outside int64.
  std::int64_t as_int(std::int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const { return string; }
};

// Deepest array/object nesting parse() accepts. The files the library
// writes nest at most eight levels (a slow-query log); the cap only keeps
// recursion off the end of the stack.
inline constexpr int kMaxDepth = 512;

// Parse a complete JSON document; nullopt on any syntax error or on
// nesting deeper than kMaxDepth.
std::optional<Value> parse(std::string_view text);

}  // namespace dyncdn::obs::json
