// Seed-swept predictor conformance: the executable form of the paper's
// headline accuracy claims (Figs. 8/9, Table 1).
//
// A conformance run executes the app x CompressionB campaign matrix for
// every seed in a MatrixSpec, computes ground-truth co-run slowdowns in
// simulation, evaluates the four predictors against them, and summarizes
// each predictor's absolute error (mean / p95 / max, with a bootstrap
// confidence interval on the mean). A synthetic M/G/1 sweep additionally
// checks the utilization inversion (paper Eq. 3) against queues with
// *injected* utilization, independent of the network simulator.
//
// The per-pair collection step is shared with the Fig. 8/9 benches, which
// are thin formatters over collect_pair_errors().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "obs/report.h"
#include "util/stats.h"
#include "valid/matrix.h"

namespace actnet::valid {

/// Deliberate output perturbation of one predictor, used to prove the
/// tolerance gates actually bite (a 1.3x scale on any model must turn the
/// suite red and name that model). Parsed from "--perturb=Model:factor".
struct PerturbSpec {
  std::string model;  ///< predictor name; empty = no perturbation
  double scale = 1.0;

  bool active() const { return !model.empty() && scale != 1.0; }
  /// Parses "Model:factor"; throws actnet::Error on a malformed spec.
  static PerturbSpec parse(const std::string& text);
};

/// One ordered (victim, aggressor) pairing: the measured co-run slowdown
/// and every model's prediction of it.
struct PairErrorRecord {
  std::uint64_t seed = 0;
  std::string victim;
  std::string aggressor;
  double measured_pct = 0.0;
  std::vector<core::Campaign::PairPrediction> predictions;
};

/// Runs (through the campaign's accessors, against its cache) every ordered
/// pairing of `app_ids` and returns the per-pair records. The shared engine of the
/// Fig. 8/9 benches and the conformance sweep. `perturb` scales the named
/// model's predictions after the fact.
std::vector<PairErrorRecord> collect_pair_errors(
    core::Campaign& campaign, const std::vector<apps::AppId>& app_ids,
    const PerturbSpec& perturb = {});

/// Per-model |measured - predicted| vectors over `records`, in the
/// models' first-seen (paper) order.
std::vector<std::pair<std::string, std::vector<double>>> errors_by_model(
    const std::vector<PairErrorRecord>& records);

/// One predictor's error statistics over the whole matrix.
struct PredictorSummary {
  std::string name;
  std::size_t n = 0;                ///< pairings x seeds evaluated
  double mean_abs_error_pct = 0.0;
  double p95_abs_error_pct = 0.0;
  double max_abs_error_pct = 0.0;
  BootstrapCi mean_ci;              ///< 90% bootstrap CI of the mean error
};

/// Synthetic M/G/1 inversion accuracy: |rho_estimated - rho_injected|
/// over a (rho x service-distribution x seed) sweep.
struct Mg1InversionSummary {
  std::size_t cases = 0;
  double mean_abs_rho_error = 0.0;
  double max_abs_rho_error = 0.0;
};

/// Simulates M/G/1 queues at known utilizations (deterministic, several
/// service distributions per seed) and inverts each observed mean sojourn
/// through queueing::pk_utilization_from_sojourn.
Mg1InversionSummary check_mg1_inversion(
    const std::vector<std::uint64_t>& seeds);

/// Everything a conformance run produced; the tolerance gates and the
/// conformance.json writer consume this.
struct ConformanceReport {
  std::string tier;
  std::vector<std::uint64_t> seeds;
  std::size_t app_count = 0;
  std::size_t grid_size = 0;
  double window_ms = 0.0;
  std::vector<PairErrorRecord> records;
  std::vector<PredictorSummary> predictors;
  Mg1InversionSummary mg1;
  /// Every seed's prefetch stats (job keys prefixed "seed<N>/", walls
  /// summed); gate evaluation attaches the conformance status (tolerance.h).
  obs::RunReport run;
};

/// Runs the full seed sweep described by `spec` plus the synthetic M/G/1
/// inversion check. Campaigns are in-memory (never touch a cache file).
ConformanceReport run_conformance(const MatrixSpec& spec,
                                  const PerturbSpec& perturb = {});

}  // namespace actnet::valid
