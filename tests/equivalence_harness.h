// Shared machinery for the equivalence/conformance test family
// (flow-forward on/off, partitioned fabric).
//
// These tests all have the same shape: run the same deterministic workload
// twice (under both flow-forward settings, or simply again) and demand
// byte-identical results — or, where RNG draw order legitimately
// shifts, gate the drift against the checked-in envelope in
// valid/tolerances.json. The pieces every such
// test needs (a platform-independent generator, temp cache paths, the
// reduced campaign configuration, the env-matrix runner, the tolerance
// loader) live here so each suite states only its property, not the rig.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/campaign.h"
#include "core/parallel.h"
#include "util/json.h"
#include "util/units.h"

namespace actnet::testing {

/// SplitMix-style generator: deterministic, seedable, and independent of
/// std::rand so scripted workloads are identical on every platform.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// Per-process temp path for a cache file; callers remove it when done.
inline std::string temp_cache(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("actnet_equiv_" + tag + "_" + std::to_string(::getpid()) + ".tsv"))
      .string();
}

/// Whole-file contents, byte for byte ("" if unreadable).
inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The reduced campaign every equivalence suite sweeps: small windows, a
/// two-point compression grid — minutes of work compressed to seconds
/// while still exercising contended ImpactB traffic and every predictor.
inline core::CampaignConfig reduced_config(const std::string& cache_path) {
  core::CampaignConfig c;
  c.opts.window = units::ms(8);
  c.opts.warmup = units::ms(2);
  c.cache_path = cache_path;
  c.jobs = 4;
  c.compression_grid = {
      core::CompressionConfig{1, 2.5e6, 1, units::KiB(40)},
      core::CompressionConfig{4, 2.5e5, 10, units::KiB(40)},
  };
  return c;
}

/// Sets an environment knob for the current scope and restores the prior
/// value (or unsets) on exit, so combo runners cannot leak settings into
/// later tests even when an assertion throws mid-run.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) prior_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (prior_.has_value())
      ::setenv(name_.c_str(), prior_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> prior_;
};

/// Runs one reduced campaign with ACTNET_FLOWFWD=`flowfwd` and returns the
/// cache file bytes.
inline std::string run_combo(const std::string& path, const char* flowfwd) {
  std::filesystem::remove(path);
  ScopedEnv ffwd("ACTNET_FLOWFWD", flowfwd);
  core::Campaign c(reduced_config(path));
  core::ParallelRunner(c).prefetch_all();
  return file_bytes(path);
}

/// Loads the drift-envelope document (valid/tolerances.json, overridable
/// via ACTNET_TOLERANCES for out-of-tree test cwds). nullopt = file not
/// reachable; callers GTEST_SKIP so a stray cwd degrades loudly-but-green
/// instead of failing on infrastructure.
inline std::optional<util::JsonValue> load_tolerances() {
  const char* src = std::getenv("ACTNET_TOLERANCES");
  const std::string tol_path = src != nullptr ? src : "valid/tolerances.json";
  std::ifstream in(tol_path);
  if (!in.good()) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return util::JsonValue::parse(ss.str());
}

}  // namespace actnet::testing
