// Measurement drivers: each function runs one complete simulated
// experiment (the unit the paper calls "an experiment on 18 nodes of Cab")
// and returns its headline quantity.
//
// Every driver builds a fresh Cluster, lays the jobs out as in the paper,
// runs `warmup + window` of simulated time and evaluates metrics over the
// post-warmup part of the run.
#pragma once

#include <optional>
#include <string>

#include "core/experiment.h"
#include "core/probes.h"
#include "queueing/mg1.h"

namespace actnet::core {

struct MeasureOptions {
  Tick window = units::ms(25);
  Tick warmup = units::ms(5);
  std::uint64_t seed = 1;
  ClusterConfig cluster{};
  /// Iteration-time measurements extend the run (by half-windows, up to
  /// `max_extension` times the window) until every rank of every measured
  /// job has at least `min_marks` iterations after warmup — slow apps
  /// under heavy interference stay measurable with small windows.
  std::size_t min_marks = 3;
  int max_extension = 8;

  Tick total() const { return warmup + window; }

  /// Applies ACTNET_FAST=1 (quarter-length window, for smoke runs) and
  /// ACTNET_WINDOW_MS=<n> overrides from the environment.
  static MeasureOptions from_env();
};

/// What runs on the application cores during a probe experiment.
struct Workload {
  enum class Kind { kIdle, kApp, kCompression };
  Kind kind = Kind::kIdle;
  apps::AppId app = apps::AppId::kFFT;
  CompressionConfig compression{};

  static Workload idle() { return {}; }
  static Workload of_app(apps::AppId id) {
    Workload w;
    w.kind = Kind::kApp;
    w.app = id;
    return w;
  }
  static Workload of_compression(const CompressionConfig& c) {
    Workload w;
    w.kind = Kind::kCompression;
    w.compression = c;
    return w;
  }
  std::string label() const;
};

/// Runs ImpactB next to `workload`; returns the probe latency summary over
/// the post-warmup window (paper §III-A).
LatencySummary run_impact_experiment(const Workload& workload,
                                     const MeasureOptions& opts);

/// Windowed variant for the time-varying extension: runs a denser probe
/// and summarizes its samples per `subwindow` of the post-warmup run.
/// Sub-windows with fewer than 5 samples are dropped.
std::vector<LatencySummary> run_impact_series(const Workload& workload,
                                              const MeasureOptions& opts,
                                              Tick subwindow = units::ms(2));

/// Switch calibration from an idle run (paper §IV-B): the service time
/// 1/mu is the *minimum* idle probe latency; Var(S) is the idle variance.
/// The idle ImpactB summary is the whole record; both parameters derive
/// from it in of().
struct Calibration {
  double service_time_us = 0.0;
  double var_service_us2 = 0.0;
  LatencySummary idle;

  queueing::Mg1Params mg1() const {
    return queueing::Mg1Params{1.0 / service_time_us, var_service_us2};
  }
  /// mu and Var(S) of an idle summary; nullopt when it cannot calibrate
  /// (no samples, or a minimum that is not positive: mg1() divides by it).
  static std::optional<Calibration> of(const LatencySummary& idle);
};

/// Runs the idle ImpactB experiment and calibrates from it.
Calibration calibrate(const MeasureOptions& opts);

/// Switch utilization (fraction of queue capacity, in [0, 0.999]) inferred
/// from a loaded probe summary through the Pollaczek–Khinchine inversion.
double estimate_utilization(const LatencySummary& loaded,
                            const Calibration& calib);

/// Element-wise utilization of a windowed impact series.
std::vector<double> estimate_utilization_series(
    const std::vector<LatencySummary>& series, const Calibration& calib);

/// Mean iteration time (microseconds) of `app` running alone.
double measure_app_alone_us(apps::AppId app, const MeasureOptions& opts);

/// Mean iteration time of `app` while a CompressionB configuration runs on
/// the probe cores (paper §III-B / Fig. 7).
double measure_app_vs_compression_us(apps::AppId app,
                                     const CompressionConfig& compression,
                                     const MeasureOptions& opts);

/// Both apps' mean iteration times when sharing the switch (Table I rows).
struct PairTimes {
  double first_us = 0.0;
  double second_us = 0.0;

  std::string serialize() const;
  /// Throws actnet::Error on a malformed encoding.
  static PairTimes deserialize(const std::string& text);
  /// Non-throwing variant for cache loads; nullopt on corruption.
  static std::optional<PairTimes> try_deserialize(const std::string& text);
};
PairTimes measure_pair_us(apps::AppId first, apps::AppId second,
                          const MeasureOptions& opts);

/// Percentage slowdown of `with_us` relative to `base_us`
/// (paper: (T_interference - T_base) / T_base * 100, floored at 0).
double slowdown_pct(double with_us, double base_us);

}  // namespace actnet::core
