// Campaign run reports: per-job wall time, simulated time, and event
// throughput, aggregated into a machine-readable `run_report.json` and a
// human summary table at campaign end.
//
// The stats flow without widening any API: `core::ParallelRunner` opens a
// `JobStatsScope` around each job on its worker thread, and deep inside the
// job `core::Cluster::run_for` calls `add_job_stats()` with the engine's
// event and virtual-time deltas. The scope is thread-local, so concurrent
// workers accumulate into their own jobs without synchronization.
//
// With a report path set, the runner also appends each job's stats to a
// per-job stream beside the report the moment the job finishes, so
// `actnet_stat` can read a live or crashed campaign (JobStreamWriter).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"

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

/// Table of the `max_rows` slowest `jobs`: key, wall and simulated ms,
/// events, Mev/s. Nothing when `jobs` is empty.
void print_slowest_jobs(std::ostream& os, std::vector<const JobStats*> jobs,
                        std::size_t max_rows = 10);

/// The per-job stream's path for a run-report path: the extension is
/// replaced ("out/run_report.json" -> "out/run_report.jobs.jsonl"); a path
/// without one gains the suffix.
std::string job_stream_path(const std::string& report_path);

/// Appends to the per-job stream: per prefetch, one `begin` record (scope,
/// workers, cached and pending keys), one record per finished job, and an
/// `end` record (wall time, worker utilization, collapsed-stack profile).
/// Each record is one whole-line O_APPEND write of "<json>\t<crc32hex>"
/// (util/fsio.h), so a crash tears at most the last line. Thread-safe:
/// workers call job() concurrently. A path that cannot be opened or
/// written degrades to a warning — observation never fails a campaign.
class JobStreamWriter {
 public:
  explicit JobStreamWriter(std::string path);
  ~JobStreamWriter();
  JobStreamWriter(const JobStreamWriter&) = delete;
  JobStreamWriter& operator=(const JobStreamWriter&) = delete;

  void begin(const std::string& scope, int workers,
             const std::vector<std::string>& cached,
             const std::vector<std::string>& pending);
  void job(const JobStats& stats);
  /// `profile` is omitted from the record when empty.
  void end(double wall_ms, double worker_utilization,
           const std::vector<ProfEntry>& profile);

 private:
  void append(std::string line);

  std::mutex mu_;
  std::string path_;
  int fd_ = -1;
};

/// One prefetch read back from the stream.
struct PrefetchLog {
  std::string scope;  ///< empty when the begin record was lost
  int workers = 0;
  std::vector<std::string> cached;
  std::vector<std::string> pending;
  std::vector<JobStats> jobs;  ///< finished jobs, in completion order
  bool ended = false;          ///< the end record was read
  double wall_ms = 0.0;
  double worker_utilization = 0.0;

  /// Pending keys without a job record: what a crashed, failed or stuck
  /// prefetch never finished.
  std::vector<std::string> unfinished() const;
};

struct JobStreamLog {
  std::vector<PrefetchLog> prefetches;
  /// ("engine;net", self_ns) pairs from the last end record carrying one.
  std::vector<std::pair<std::string, std::uint64_t>> profile;
  std::size_t corrupt_lines = 0;  ///< CRC/parse failures and torn tails
};

/// Corruption-tolerant load: damaged or torn lines are skipped and
/// counted, never admitted, and never abort the load. A missing file
/// throws (a caller error, not corruption).
JobStreamLog load_job_stream(const std::string& path);

}  // namespace actnet::obs
