// Parallel campaign executor: the only code that runs an experiment.
//
// The full paper reproduction runs ~300 independent simulations (idle
// calibration, the CompressionB sweep, per-app baselines and degradation
// curves, the 21 unordered co-run pairs); each one builds its own
// Engine/Network/Machine and draws from its own seeded RNG streams, so
// they can run on any thread in any order and still produce bit-identical
// numbers. ParallelRunner takes a batch of such experiments (Campaign's
// five *_experiment() builders), skips the ones already cached, and fans
// the rest out over a util::ThreadPool; each job puts its result in the
// Campaign's MeasurementDb. prefetch() builds the batch for a campaign
// scope; the Campaign accessors build one for what they lack. The db's
// file write is deferred to one sorted single-writer flush at the end, so
// the cache bytes are identical no matter how many workers ran.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "obs/report.h"

namespace actnet::core {

/// Which slice of the campaign to prefetch. Scopes are cumulative where a
/// figure needs them to be (profiles include the compression table).
enum class PrefetchScope {
  kCalibration,       ///< idle-switch calibration only
  kImpacts,           ///< calibration (the idle run) + grid and app ImpactB
  kCompressionTable,  ///< calibration + the CompressionB grid impacts (Fig 6)
  kAppProfiles,       ///< + baselines and degradation curves (Fig 7)
  kPairs,             ///< baselines + the 21 unordered co-run pairs (Table I)
  kAll,               ///< everything the Fig 8/9 prediction pipeline needs
};

struct PrefetchReport {
  std::size_t executed = 0;  ///< experiments simulated by this run
  std::size_t cached = 0;    ///< experiments already in the MeasurementDb
  int jobs = 1;              ///< worker threads used
  /// Per-job wall/sim time and event throughput. Written to
  /// CampaignConfig::report_path as JSON (plus a stderr summary table)
  /// when that path is set; always populated for callers.
  obs::RunReport run;
};

class ParallelRunner {
 public:
  /// `jobs` = worker threads; 0 uses campaign.config().jobs, which in turn
  /// defaults to ACTNET_JOBS / hardware_concurrency.
  explicit ParallelRunner(Campaign& campaign, int jobs = 0);

  /// Runs every not-yet-cached experiment of `scope` for the apps in
  /// `app_set` (impacts, baselines, degradations and the unordered pairs
  /// among them) as one batch; returns once all are merged and the db is
  /// flushed. Rethrows the first job exception.
  PrefetchReport prefetch(PrefetchScope scope,
                          const std::vector<apps::AppId>& app_set =
                              apps::all_app_ids());

  PrefetchReport prefetch_all() { return prefetch(PrefetchScope::kAll); }

  /// Runs `pending` as one batch named `label` (the scope in the run
  /// report and the per-job stream). `cached` lists the batch's
  /// experiments that were found in the cache (Campaign::drop_cached), so
  /// the report names them too.
  PrefetchReport run(const std::string& label, std::vector<Experiment> pending,
                     std::vector<std::string> cached = {});

 private:
  Campaign& campaign_;
  int jobs_;
};

}  // namespace actnet::core
