#include "valid/matrix.h"

namespace actnet::valid {
namespace {

core::MeasureOptions conformance_options() {
  // The unit-test window scale: long enough for stable probe statistics
  // (>= 50 samples per impact run), short enough that a full sweep stays
  // minutes-free. Seeds are overridden per campaign by the sweep.
  core::MeasureOptions opts = core::MeasureOptions::from_env();
  opts.window = units::ms(8);
  opts.warmup = units::ms(2);
  return opts;
}

}  // namespace

MatrixSpec quick_matrix() {
  MatrixSpec spec;
  spec.tier = "quick";
  spec.seeds = {1, 2};
  // Three apps spanning the sensitivity range: FFT (most network-bound),
  // MILC (latency-sensitive), MCB (compute-heavy, bursty).
  spec.apps = {apps::AppId::kFFT, apps::AppId::kMILC, apps::AppId::kMCB};
  // A light / medium / heavy slice of the paper's 40-configuration grid,
  // so the Queue model's p_A(U) curve has spread to interpolate over.
  spec.grid = {
      core::CompressionConfig{1, 2.5e6, 1, units::KiB(40)},
      core::CompressionConfig{4, 2.5e5, 10, units::KiB(40)},
      core::CompressionConfig{14, 2.5e4, 1, units::KiB(40)},
  };
  spec.opts = conformance_options();
  return spec;
}

MatrixSpec full_matrix() {
  MatrixSpec spec;
  spec.tier = "full";
  spec.seeds = {1, 2, 3};
  spec.apps = apps::all_app_ids();
  // Eight configurations covering the (P, B, M) extremes and the middle of
  // the paper's grid — enough spread to reproduce the Fig. 6 utilization
  // range without the full 40-point sweep per seed.
  spec.grid = {
      core::CompressionConfig{1, 2.5e7, 1, units::KiB(40)},
      core::CompressionConfig{1, 2.5e6, 1, units::KiB(40)},
      core::CompressionConfig{4, 2.5e6, 10, units::KiB(40)},
      core::CompressionConfig{4, 2.5e5, 1, units::KiB(40)},
      core::CompressionConfig{7, 2.5e5, 10, units::KiB(40)},
      core::CompressionConfig{14, 2.5e4, 1, units::KiB(40)},
      core::CompressionConfig{17, 2.5e5, 1, units::KiB(40)},
      core::CompressionConfig{17, 2.5e4, 10, units::KiB(40)},
  };
  spec.opts = conformance_options();
  return spec;
}

}  // namespace actnet::valid
