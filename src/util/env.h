// Environment-variable helpers shared by the ACTNET_* knobs; one place
// for the getenv/parse idiom instead of a copy per call site.
#pragma once

#include <cstdlib>
#include <string>

#include "util/error.h"

namespace actnet::util {

/// Positive integer from `name`, else `fallback` (unset, empty, zero,
/// negative, and non-numeric values all fall back).
inline int env_int(const char* name, int fallback = 0) {
  if (const char* v = std::getenv(name); v != nullptr) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fallback;
}

/// Positive double from `name`, else `fallback`.
inline double env_double(const char* name, double fallback = 0.0) {
  if (const char* v = std::getenv(name); v != nullptr) {
    const double d = std::atof(v);
    if (d > 0.0) return d;
  }
  return fallback;
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
