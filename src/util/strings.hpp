// Small string utilities shared by the darshan text parser, the CLI parser
// and the report renderers. No locale dependence; ASCII semantics only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mosaic::util {

/// True for the ASCII whitespace that trim strips and split_whitespace
/// splits on. Inline: the darshan text parser calls it once per byte.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Splits on a single character; adjacent separators yield empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);

/// Splits on runs of ASCII whitespace; never yields empty fields.
[[nodiscard]] std::vector<std::string_view> split_whitespace(
    std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Locale-free numeric parsing; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text) noexcept;
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text) noexcept;
[[nodiscard]] std::optional<double> parse_double(std::string_view text) noexcept;

/// Formats bytes with binary units, e.g. "1.50 GiB".
[[nodiscard]] std::string format_bytes(double bytes);

/// Formats a duration in seconds as a compact human string, e.g. "2h 03m".
[[nodiscard]] std::string format_duration(double seconds);

/// Formats a ratio in [0,1] as a percentage with one decimal, e.g. "37.5%".
[[nodiscard]] std::string format_percent(double ratio);

/// Lower-cases ASCII letters.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Joins the elements with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

}  // namespace mosaic::util
