// Shared machinery for the equivalence/conformance test family (flow-
// forward on/off, observability, parallel campaigns, partitioned fabric).
//
// These tests all have the same shape: run the same deterministic workload
// twice (under both settings, or simply again) and demand byte-identical
// results. The pieces every such test needs (a platform-independent
// generator, temp cache paths, the reduced campaign configuration) live
// here so each suite states only its property, not the rig.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign.h"
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

}  // namespace actnet::testing
