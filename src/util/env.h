// Environment-variable helpers shared by the ACTNET_* knobs; one place
// for the getenv/parse idiom instead of a copy per call site.
//
// Numeric knobs are strict: a value that is not a plain non-negative number
// (`abc`, `4x`, `-2`, ` 3`) throws actnet::Error naming the knob and the
// value instead of silently meaning "default" or a prefix of itself. Unset
// and empty still mean "use the default", and 0 keeps each knob's
// documented meaning (the default, or "off").
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "util/error.h"
#include "util/parse.h"

namespace actnet::util {

/// Non-negative integer value of knob `name` (an environment variable or a
/// command-line flag); throws actnet::Error naming both otherwise.
inline int parse_count(std::string_view name, std::string_view value) {
  const auto n = parse_number<std::uint64_t>(value);
  if (!n || *n > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw Error(std::string(name) + "='" + std::string(value) +
                "' is not a non-negative integer");
  return static_cast<int>(*n);
}

/// Positive integer from `name`, else `fallback` (unset, empty and 0 fall
/// back); anything but a non-negative integer throws.
inline int env_int(const char* name, int fallback = 0) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const int n = parse_count(name, v);
  return n > 0 ? n : fallback;
}

/// Positive finite double from `name`, else `fallback` (unset, empty and 0
/// fall back); anything but a non-negative number throws.
inline double env_double(const char* name, double fallback = 0.0) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const auto d = parse_number<double>(v);
  if (!d || !std::isfinite(*d) || *d < 0.0)
    throw Error(std::string(name) + "='" + v +
                "' is not a non-negative number");
  return *d > 0.0 ? *d : fallback;
}

/// Value of `name`, else `fallback`.
inline std::string env_string(const char* name, std::string fallback = {}) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

/// True when `name` is set to a value starting with '1' (the convention of
/// ACTNET_FAST=1, ACTNET_METRICS=1, ...).
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

/// Default-on knob accepting word forms too (ACTNET_FLOWFWD=on|off|1|0).
/// Unset or empty means `fallback`; any other unrecognized value throws
/// actnet::Error naming the variable and the value.
inline bool env_onoff_or(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const std::string s(v);
  if (s == "0" || s == "off" || s == "false" || s == "no") return false;
  if (s == "1" || s == "on" || s == "true" || s == "yes") return true;
  throw Error(std::string(name) + "='" + s +
              "' is not a recognized on/off value (use 1|on|true|yes or "
              "0|off|false|no)");
}

}  // namespace actnet::util
