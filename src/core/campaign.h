// Campaign orchestration: everything the paper's evaluation needs, lazily
// measured and cached.
//
// A Campaign memoizes (in memory and in a MeasurementDb file) the
// calibration, the per-workload ImpactB summaries, the 40-configuration
// CompressionB table, the per-application degradation curves, the co-run
// pair measurements, and the predictions of the four models. The
// figure/table benches are thin formatters over this API, and all of them
// share one cache, so the expensive simulations run exactly once.
//
// Threading: the lazy accessors are single-threaded (call them from one
// thread). To use many cores, run a core::ParallelRunner first — it fans
// the pending experiments out over a util::ThreadPool and merges results
// into this campaign through the thread-safe record_*() helpers; the
// accessors then find everything cached and never simulate.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/db.h"
#include "core/measure.h"
#include "core/models.h"

namespace actnet::core {

struct CampaignConfig {
  MeasureOptions opts = MeasureOptions::from_env();
  /// Cache file; empty = in-memory only. Default comes from ACTNET_CACHE
  /// or "actnet_cache.tsv" in the working directory.
  std::string cache_path;
  /// Worker threads for ParallelRunner; 0 = ACTNET_JOBS env, else
  /// hardware_concurrency (see util::ThreadPool::default_jobs).
  int jobs = 0;
  /// CompressionB sweep; empty = the paper's 40-configuration grid.
  /// Reduced grids keep test campaigns tractable.
  std::vector<CompressionConfig> compression_grid;
  /// Run-report JSON path written by ParallelRunner::prefetch at campaign
  /// end (plus a summary table on stderr); empty = off. Default comes from
  /// ACTNET_REPORT.
  std::string report_path;

  static CampaignConfig from_env();
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config = CampaignConfig::from_env());

  const MeasureOptions& options() const { return config_.opts; }
  const CampaignConfig& config() const { return config_; }

  /// The CompressionB sweep this campaign runs (paper grid by default).
  const std::vector<CompressionConfig>& compression_grid() const {
    return grid_;
  }

  /// Idle-switch calibration (mu, Var(S)) — paper §IV-B.
  const Calibration& calibration();

  /// ImpactB latency summary while `workload` runs — paper §III-A.
  const LatencySummary& impact_of(const Workload& workload);

  /// Switch utilization induced by `workload` (P–K inversion).
  double utilization_of(const Workload& workload);

  /// The CompressionB profiles (impact summary + utilization) — Fig 6.
  const std::vector<CompressionProfile>& compression_table();

  /// Mean iteration time of `app` running alone (microseconds).
  double baseline_us(apps::AppId app);

  /// Full application profile: probe signature, utilization, baseline and
  /// the degradation under each CompressionB configuration — Fig 7.
  const AppProfile& app_profile(apps::AppId app);

  /// Measured % slowdown of `victim` co-running with `aggressor` — Table I.
  double measured_pair_slowdown_pct(apps::AppId victim, apps::AppId aggressor);

  struct PairPrediction {
    std::string model;
    double predicted_pct = 0.0;
    double measured_pct = 0.0;
    double abs_error() const {
      const double e = predicted_pct - measured_pct;
      return e < 0 ? -e : e;
    }
  };
  /// Predictions of all four models for (victim, aggressor) — Figs 8/9.
  std::vector<PairPrediction> predict_pair(apps::AppId victim,
                                           apps::AppId aggressor);

  MeasurementDb& db() { return db_; }
  /// The cache fingerprint: schema version plus every result-affecting
  /// knob. A cache recorded under another fingerprint is discarded.
  std::string fingerprint() const;

  // --- thread-safe result merging (used by ParallelRunner workers) ---

  /// Each records one finished measurement into the db and memo maps under
  /// the campaign mutex; safe to call from worker threads.
  void record_calibration(const Calibration& calib);
  void record_impact(const Workload& workload, const LatencySummary& summary);
  void record_baseline(apps::AppId app, double iter_us);
  void record_degradation(apps::AppId app, const CompressionConfig& cfg,
                          double iter_us);
  void record_pair(apps::AppId first, apps::AppId second, const PairTimes& t);

 private:
  /// Ordered pair iteration times, running each unordered pair once.
  PairTimes pair_times(apps::AppId first, apps::AppId second);

  CampaignConfig config_;
  std::vector<CompressionConfig> grid_;
  MeasurementDb db_;
  /// Guards the memo maps and calibration state against concurrent
  /// record_*() merges.
  std::mutex memo_mu_;
  bool calibrated_ = false;
  Calibration calibration_;
  std::unordered_map<std::string, LatencySummary> impact_memo_;
  std::vector<CompressionProfile> compression_table_;
  std::map<apps::AppId, AppProfile> app_profiles_;
  std::map<apps::AppId, double> baselines_;
  std::vector<std::unique_ptr<Predictor>> predictors_;
};

}  // namespace actnet::core
