// Strict parsing of numbers that come from outside the simulator (CLI
// flags, environment variables, files read back by the tools): malformed
// text is an error, never a silent default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace dyncdn::sim {

/// A whole decimal number: digits only, with no sign, no blanks, no
/// trailing junk and no overflow of 64 bits. nullopt otherwise, including
/// for an empty string.
std::optional<std::uint64_t> parse_uint(std::string_view text);

/// A finite, non-negative decimal number such as "100", "0.5" or "2e3":
/// no sign, no blanks, no trailing junk, no inf or nan, nothing out of
/// double range. nullopt otherwise, including for an empty string.
std::optional<double> parse_double(std::string_view text);

/// A byte count with an optional k/m/g (or K/M/G) binary suffix, e.g.
/// "65536", "64k", "2M". Used by --capture-budget and the
/// DYNCDN_CAPTURE_BUDGET environment variable. nullopt on malformed input.
std::optional<std::size_t> parse_byte_size(std::string_view text);

/// parse_uint of environment variable `name`; nullopt when it is unset.
/// Throws std::invalid_argument, naming the variable, when it is set to
/// anything but a whole number.
std::optional<std::uint64_t> env_uint(const char* name);

}  // namespace dyncdn::sim
