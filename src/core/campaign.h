// Campaign orchestration: everything the paper's evaluation needs,
// measured on demand and cached in memory and in a MeasurementDb file —
// the calibration, ImpactB summaries, the CompressionB table, degradation
// curves, co-run pairs, and the four models' predictions. The benches are
// thin formatters over this API and share one cache.
//
// Each simulation is one of five experiment kinds; *_experiment() maps it
// to its cache key and a job that measures it into the db. Only
// core::ParallelRunner runs jobs: prefetch() hands it a scope, and an
// accessor hands it the experiments it lacks as one batch, then decodes
// its result from the cache (so a cold app_profile() runs in parallel and
// a warm accessor builds no runner). Call the accessors from one thread;
// the jobs run on the runner's workers and touch only the thread-safe db.
#pragma once

#include <functional>
#include <map>
#include <optional>
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

/// One cacheable experiment: its MeasurementDb key (core/keys.h), a check
/// that a cached value still decodes, and the job that measures it into
/// the campaign's db (independent of other jobs, safe on any thread).
struct Experiment {
  std::string key;
  bool (*decodes)(const std::string& value) = nullptr;
  std::function<void()> run;
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

  /// Idle-switch calibration (mu, Var(S)) — paper §IV-B. Cached under the
  /// `calibration` key as the idle ImpactB summary it derives from.
  const Calibration& calibration();

  /// ImpactB latency summary while `workload` runs — paper §III-A. The
  /// idle workload's summary is the calibration's.
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

  // --- the five experiment kinds (run by core::ParallelRunner) ---
  Experiment calibration_experiment();
  /// A loaded workload; the idle one's run is calibration_experiment().
  Experiment impact_experiment(const Workload& workload);
  Experiment baseline_experiment(apps::AppId app);
  Experiment degradation_experiment(apps::AppId app,
                                    const CompressionConfig& cfg);
  /// Unordered pair; callers normalize (first <= second).
  Experiment pair_experiment(apps::AppId first, apps::AppId second);

  /// Removes from `wanted` every experiment whose cached value still
  /// decodes and returns their keys. A cached value that no longer decodes
  /// (torn write, bit rot that survived line framing) is invalidated, and
  /// its experiment stays in `wanted` to be measured again.
  std::vector<std::string> drop_cached(std::vector<Experiment>& wanted);

 private:
  /// Runs the experiments of `wanted` that are not cached as one
  /// ParallelRunner batch named `label`; builds no runner when all are.
  void measure_missing(const char* label, std::vector<Experiment> wanted);

  CampaignConfig config_;
  std::vector<CompressionConfig> grid_;
  MeasurementDb db_;
  std::optional<Calibration> calibration_;
  std::unordered_map<std::string, LatencySummary> impact_memo_;
  std::vector<CompressionProfile> compression_table_;
  std::map<apps::AppId, AppProfile> app_profiles_;
  std::map<apps::AppId, double> baselines_;
  std::vector<std::unique_ptr<Predictor>> predictors_;
};

}  // namespace actnet::core
