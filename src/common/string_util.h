#ifndef FLOCK_COMMON_STRING_UTIL_H_
#define FLOCK_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace flock {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on any whitespace run, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing whitespace.
std::string Trim(std::string_view s);

/// ASCII lower/upper-casing (SQL keywords are ASCII).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Formats `v` with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision);

/// Formats a count with thousands separators, e.g. 22330 -> "22,330".
std::string FormatWithCommas(long long v);

/// Concatenates `parts` (strings, string views, C strings or chars) by
/// appending into one string. Use it where a chain would start with a
/// literal (`"(" + std::to_string(i)`): GCC 12 reports -Wrestrict false
/// positives (GCC bug 105651) on those.
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

}  // namespace flock

#endif  // FLOCK_COMMON_STRING_UTIL_H_
