// Small string utilities used across the front-end, corpus generator and
// report renderers. All functions are pure.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jepo {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Concatenate strings, views and literals into one string.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  out.reserve((std::string_view(parts).size() + ...));
  (out.append(std::string_view(parts)), ...);
  return out;
}

/// Hash for string-keyed maps that are probed with string_views, so a
/// lookup builds no std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Replace every occurrence of `from` (non-empty) with `to`.
std::string replaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Left/right pad with spaces to at least `width` columns.
std::string padRight(std::string_view s, std::size_t width);
std::string padLeft(std::string_view s, std::size_t width);

/// Fixed-point decimal rendering, e.g. fixed(14.456, 2) == "14.46".
std::string fixed(double value, int decimals);

/// Thousands-separated integer rendering, e.g. withCommas(101172) == "101,172".
std::string withCommas(long long value);

/// Count '\n'-terminated lines the way `wc -l` over source files would,
/// counting a trailing unterminated line as a line.
std::size_t countLines(std::string_view text);

}  // namespace jepo
