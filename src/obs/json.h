#ifndef FLOCK_OBS_JSON_H_
#define FLOCK_OBS_JSON_H_

#include <string>

namespace flock::obs {

/// `s` escaped for use inside a JSON string literal: quotes, backslashes
/// and control characters become escapes.
std::string JsonEscape(const std::string& s);

/// `v` as a JSON number, printed with `format` (six significant digits by
/// default, as an ostream prints a double). JSON has no Inf or NaN, so a
/// non-finite value is written as `null`.
std::string JsonNumber(double v, const char* format = "%.6g");

}  // namespace flock::obs

#endif  // FLOCK_OBS_JSON_H_
