#include "sim/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace dyncdn::sim {

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  // from_chars accepts neither blanks nor a sign for an unsigned type.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  // from_chars accepts no blanks and no '+'; a '-' is refused here.
  if (text.starts_with('-')) return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::size_t> parse_byte_size(std::string_view text) {
  std::size_t unit = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': unit = std::size_t{1} << 10; break;
      case 'm': case 'M': unit = std::size_t{1} << 20; break;
      case 'g': case 'G': unit = std::size_t{1} << 30; break;
      default: break;
    }
    if (unit > 1) text.remove_suffix(1);
  }
  const auto count = parse_uint(text);
  if (!count || *count > std::numeric_limits<std::size_t>::max() / unit) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(*count) * unit;
}

std::optional<std::uint64_t> env_uint(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const auto value = parse_uint(text);
  if (!value) {
    throw std::invalid_argument(std::string(name) +
                                " must be a whole number, got '" + text +
                                "'");
  }
  return value;
}

}  // namespace dyncdn::sim
