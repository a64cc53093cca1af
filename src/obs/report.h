// Campaign run reports: per-job wall time, simulated time, and event
// throughput, aggregated into a machine-readable `run_report.json` and a
// human summary table at campaign end.
//
// The stats flow without widening any API: `core::ParallelRunner` opens a
// `JobStatsScope` around each job on its worker thread, and deep inside the
// job `core::Cluster::run_for` calls `add_job_stats()` with the engine's
// event and virtual-time deltas. The scope is thread-local, so concurrent
// workers accumulate into their own jobs without synchronization.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/units.h"

namespace actnet::obs {

/// One campaign job (one cache key: a calibration, an impact run, a
/// co-run measurement, ...).
struct JobStats {
  std::string key;
  bool cached = false;      ///< satisfied from the measurement cache
  double wall_ms = 0.0;     ///< host wall time spent executing
  double sim_ms = 0.0;      ///< virtual time simulated
  std::uint64_t events = 0; ///< engine events executed
  double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0.0;
  }
};

/// RAII channel binding `add_job_stats` calls on this thread to `sink`
/// for the scope's lifetime. Scopes nest (inner wins), matching nested
/// measurement drivers.
class JobStatsScope {
 public:
  explicit JobStatsScope(JobStats* sink);
  ~JobStatsScope();
  JobStatsScope(const JobStatsScope&) = delete;
  JobStatsScope& operator=(const JobStatsScope&) = delete;

 private:
  JobStats* prev_;
};

/// Credits `events` executed over `sim_time` virtual ticks to the innermost
/// JobStatsScope on this thread; no-op when none is active (e.g. direct
/// library use outside a campaign).
void add_job_stats(std::uint64_t events, Tick sim_time);

/// One registry counter sampled at campaign end (see Registry::snapshot);
/// carries the engine and flow-forward counters
/// ("sim.engine.events_executed", "net.flowfwd.messages",
/// "net.flowfwd.demotions", ...) into the report.
struct MetricSample {
  std::string name;
  double value = 0.0;
};

/// One registry histogram sampled at campaign end: count, mean, and the
/// coarse log2-bucket quantile upper bounds (p50/p90/p99 land in some
/// octave; the bound is that octave's inclusive ceiling).
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50_le = 0;
  std::uint64_t p90_le = 0;
  std::uint64_t p99_le = 0;
};

/// Paper-conformance status attached to a run report by the validation
/// subsystem (valid::). `ran == false` (the default) means the campaign
/// was not a conformance run and the block is omitted from the JSON.
struct ConformanceSummary {
  bool ran = false;
  bool passed = false;
  std::string tier;       ///< "quick" or "full"
  int checks = 0;         ///< tolerance gates evaluated
  int failed = 0;         ///< gates exceeded
  std::string detail;     ///< first failing claim; empty when passed
};

/// Whole-campaign summary produced by core::ParallelRunner.
struct RunReport {
  int workers = 0;
  double wall_ms = 0.0;  ///< campaign wall time (prefetch start to finish)
  std::vector<JobStats> jobs;
  /// Counter totals from the default metrics registry.
  std::vector<MetricSample> metrics;
  /// Histogram distributions (latencies, queue depths) from the same
  /// registry, with log2-bucket p50/p90/p99 bounds.
  std::vector<HistogramSample> hists;
  /// Conformance status (valid:: runs only; see ConformanceSummary::ran).
  ConformanceSummary conformance;

  std::uint64_t total_events() const;
  double total_job_wall_ms() const;
  int cached_count() const;
  /// Fraction of worker capacity spent in jobs: sum(job wall) /
  /// (workers * campaign wall). 1.0 = perfectly packed.
  double worker_utilization() const;

  void write_json(std::ostream& os) const;
  /// Human summary: totals plus the slowest jobs.
  void print(std::ostream& os, std::size_t max_rows = 10) const;
};

}  // namespace actnet::obs
