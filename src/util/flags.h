// Command-line flags for the tools (iqbench, iqcached, iqcheck): prefix
// matching for "--name=value" arguments and strict numeric values. A number
// must be the whole value: an empty value, a stray character (--mix=1O), a
// sign on an unsigned flag or a number outside the type's range is refused
// instead of being read as 0 or as its numeric prefix, and the tool prints
// its usage text and exits 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace iq::flags {

/// True when `arg` starts with `prefix` (e.g. "--port="); *value then
/// points at the rest of `arg`.
inline bool Value(const char* arg, const char* prefix, const char** value) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *value = arg + n;
  return true;
}

/// Parse all of `text` as a T (an integer type or double). False, leaving
/// *out untouched, for an empty text, any character that is not part of
/// the number, or a number outside T's range (for double: not finite).
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  *out = v;
  return true;
}

/// The whole of `value` as a T. A malformed value calls `usage(arg)`,
/// which must not return: each tool's Usage() prints its usage text and
/// exits 2.
template <typename T>
T Number(const char* arg, std::string_view value,
         void (*usage)(const char*)) {
  T out{};
  if (!ParseNumber(value, &out)) usage(arg);
  return out;
}

}  // namespace iq::flags
