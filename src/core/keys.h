// Measurement-cache key scheme: Campaign's five *_experiment() builders
// name their experiments by these keys, and its accessors decode results
// from the same entries, so every path resolves one experiment to one.
#pragma once

#include <string>

#include "apps/apps.h"
#include "core/measure.h"

namespace actnet::core::keys {

inline std::string calibration() { return "calibration"; }

inline std::string impact(const Workload& workload) {
  return "impact/" + workload.label();
}

inline std::string baseline(apps::AppId app) {
  return "base/" + apps::app_info(app).name;
}

inline std::string degradation(apps::AppId app, const CompressionConfig& cfg) {
  return "deg/" + apps::app_info(app).name + "/" + cfg.label();
}

/// Unordered pair key; callers normalize (first <= second).
inline std::string pair(apps::AppId first, apps::AppId second) {
  return "pair/" + apps::app_info(first).name + "/" +
         apps::app_info(second).name;
}

}  // namespace actnet::core::keys
