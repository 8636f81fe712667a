#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace dyncdn::obs::json {

const Value* Value::get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t Value::as_int(std::int64_t fallback) const {
  if (type != Type::kNumber) return fallback;
  if (is_integer) return integer;
  // Truncates toward zero; a double outside int64's range has no int64.
  if (!(number >= -0x1p63 && number < 0x1p63)) return fallback;
  return static_cast<std::int64_t>(number);
}

double Value::as_double(double fallback) const {
  if (type != Type::kNumber) return fallback;
  return is_integer ? static_cast<double>(integer) : number;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
        if (!literal("true")) return std::nullopt;
        return make_bool(true);
      case 'f':
        if (!literal("false")) return std::nullopt;
        return make_bool(false);
      case 'n':
        if (!literal("null")) return std::nullopt;
        return Value{};
      default: return parse_number();
    }
  }

  // Close one array/object level. A failed parse abandons the whole
  // document, so only successful closes need to unwind the depth.
  Value leave(Value v) {
    --depth_;
    return v;
  }

  static Value make_bool(bool b) {
    Value v;
    v.type = Value::Type::kBool;
    v.boolean = b;
    return v;
  }

  std::optional<Value> parse_object() {
    if (!consume('{') || ++depth_ > kMaxDepth) return std::nullopt;
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (consume('}')) return leave(std::move(v));
    while (true) {
      skip_ws();
      auto key = parse_string_raw();
      if (!key || !consume(':')) return std::nullopt;
      auto member = parse_value();
      if (!member) return std::nullopt;
      v.object.emplace_back(std::move(*key), std::move(*member));
      if (consume(',')) continue;
      if (consume('}')) return leave(std::move(v));
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array() {
    if (!consume('[') || ++depth_ > kMaxDepth) return std::nullopt;
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (consume(']')) return leave(std::move(v));
    while (true) {
      auto element = parse_value();
      if (!element) return std::nullopt;
      v.array.push_back(std::move(*element));
      if (consume(',')) continue;
      if (consume(']')) return leave(std::move(v));
      return std::nullopt;
    }
  }

  std::optional<Value> parse_string_value() {
    auto s = parse_string_raw();
    if (!s) return std::nullopt;
    Value v;
    v.type = Value::Type::kString;
    v.string = std::move(*s);
    return v;
  }

  std::optional<std::string> parse_string_raw() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return std::nullopt;
            }
          }
          // The exporter only emits \u00xx for control bytes; decode the
          // BMP code point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                 c == '+') {
        if (c != '-' || (pos_ > start && (text_[pos_ - 1] == 'e' ||
                                          text_[pos_ - 1] == 'E'))) {
          integral = false;
          ++pos_;
        } else {
          break;
        }
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    Value v;
    v.type = Value::Type::kNumber;
    char* end = nullptr;
    if (integral) {
      v.integer = std::strtoll(token.c_str(), &end, 10);
      v.is_integer = end == token.c_str() + token.size();
      v.number = static_cast<double>(v.integer);
      if (v.is_integer) return v;
      end = nullptr;
    }
    v.is_integer = false;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    // A literal past double's range (1e999) has no finite value, and no
    // writer here could write it back.
    if (!std::isfinite(v.number)) return std::nullopt;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace dyncdn::obs::json
