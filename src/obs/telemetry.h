// Live telemetry: a background sampler over a metrics registry, a bounded
// in-memory flight recorder, and two exporters (crash-safe JSONL history,
// Prometheus text exposition).
//
// The paper's methodology is continuous *active* measurement of a running
// fabric; this is the same stance applied to our own runtime. A Sampler
// thread wakes on a fixed wall-clock cadence (ACTNET_TELEMETRY=<ms>,
// default off), snapshots the registry, computes per-interval deltas and
// rates against the previous snapshot, keeps the last N samples in memory
// (the flight recorder — what a post-mortem wants when a campaign dies),
// and appends each sample to `telemetry.jsonl` with the measurement
// cache's durability discipline: one whole-line O_APPEND write per record,
// a CRC-32 suffix, and a corruption-tolerant loader that skips (and
// counts) torn or damaged lines instead of failing.
//
// Non-perturbation (the PR 2 invariant): the sampler only *reads* —
// relaxed atomics and the registry mutex. It never schedules engine
// events, draws RNG, or touches virtual time, so campaigns run with the
// sampler on produce byte-identical caches and predictions
// (tests/test_telemetry_pipeline.cpp proves it).
//
// A stall watchdog rides the same loop: when the engine event counter
// stops advancing for a configurable window while work is outstanding, it
// emits a one-shot diagnostic record (with a collapsed-stack profile of
// where wall time went — see obs/profile.h) instead of staying silent
// until the campaign is killed. Engines publish that counter when they are
// destroyed, so it advances once per finished experiment: the window must
// exceed the longest single experiment.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace actnet::obs {

struct TelemetryConfig {
  /// Sampling cadence in wall-clock milliseconds; <= 0 disables.
  int interval_ms = 0;
  /// JSONL history file; empty keeps samples in memory only.
  std::string out_path = "telemetry.jsonl";
  /// Optional Prometheus text exposition, rewritten atomically every
  /// sample — point a node_exporter textfile collector (or a test) at it.
  std::string prom_path;
  /// Flight-recorder capacity (latest N samples kept in memory).
  std::size_t keep = 256;
  /// Stall watchdog: flag a campaign whose engine event counter has not
  /// advanced for this many milliseconds; 0 disables.
  int stall_ms = 5000;

  /// Reads ACTNET_TELEMETRY (ms), ACTNET_TELEMETRY_OUT,
  /// ACTNET_TELEMETRY_PROM, ACTNET_TELEMETRY_KEEP,
  /// ACTNET_TELEMETRY_STALL_MS.
  static TelemetryConfig from_env();
};

/// One point-in-time snapshot (cumulative values, not deltas).
struct TelemetrySample {
  std::uint64_t seq = 0;
  double t_ms = 0.0;  ///< wall time since sampler start
  std::vector<Registry::Sample> metrics;
};

/// One metric's per-interval movement between two samples.
struct MetricRate {
  std::string name;
  char kind = 'c';
  double value = 0.0;         ///< cumulative value at the later sample
  double delta = 0.0;         ///< value - previous value (counters, hist counts)
  double rate_per_sec = 0.0;  ///< delta / interval
};

/// Deltas/rates from `prev` to `cur` (matched by name; metrics that appear
/// only in `cur` count their full value as the delta). For histograms the
/// delta/rate track the sample count.
std::vector<MetricRate> compute_rates(const TelemetrySample& prev,
                                      const TelemetrySample& cur);

class Sampler {
 public:
  /// Samples `registry` (default: the process-wide default_registry()).
  explicit Sampler(TelemetryConfig cfg, Registry* registry = nullptr);
  ~Sampler();  ///< stop() — joins the thread and flushes the profile record
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Launches the background thread. Idempotent; no-op when
  /// cfg.interval_ms <= 0.
  void start();
  /// Stops and joins; appends a final collapsed-stack profile record to
  /// the JSONL log. Idempotent — safe to call twice or without start().
  void stop();

  bool running() const;
  std::uint64_t samples_taken() const;

  /// Takes one sample synchronously on the caller's thread (also what the
  /// background thread calls each tick). Usable without start() — tests
  /// drive deterministic sequences this way.
  void sample_once();

  /// Flight recorder: the most recent samples, oldest first.
  std::vector<TelemetrySample> recent() const;

  /// True once the watchdog has flagged a stall (sticky until the event
  /// counter advances again; episodes() counts distinct stalls).
  bool stalled() const;
  std::uint64_t stall_episodes() const;

  const TelemetryConfig& config() const { return cfg_; }

 private:
  void run_loop();
  void append_record(const std::string& json);
  void write_prom_file(const std::vector<Registry::Sample>& metrics);
  void check_stall(const TelemetrySample& s);
  void ensure_out_open();

  TelemetryConfig cfg_;
  Registry* registry_;
  std::chrono::steady_clock::time_point t0_;

  mutable std::mutex mu_;          // guards everything below
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::deque<TelemetrySample> recorder_;
  TelemetrySample prev_;
  bool have_prev_ = false;
  std::uint64_t next_seq_ = 0;
  int out_fd_ = -1;
  bool out_failed_ = false;
  // Stall watchdog state.
  double last_advance_ms_ = 0.0;
  double last_events_ = -1.0;
  bool stall_flagged_ = false;
  std::uint64_t stall_episodes_ = 0;
};

/// Serializes one sample as a single JSON object (no trailing newline, no
/// CRC — append_jsonl_line adds those).
std::string format_sample_json(const TelemetrySample& s);

/// The whole-line record as written to the log: "<json>\t<crc32hex>\n".
std::string format_jsonl_record(const std::string& json);

/// A loaded telemetry log. `samples` excludes diagnostic records; the
/// final profile dump (and any stall dumps) surface separately.
struct TelemetryLog {
  std::vector<TelemetrySample> samples;
  /// Collapsed-stack profile from the last "profile" record, if any:
  /// ("engine;net", self_ns) pairs.
  std::vector<std::pair<std::string, std::uint64_t>> profile;
  std::size_t stall_records = 0;
  std::size_t corrupt_lines = 0;  ///< CRC/parse failures and torn tails
};

/// Corruption-tolerant load: damaged or torn lines are skipped and
/// counted, never admitted, and never abort the load. A missing file
/// throws (that is a caller error, not corruption).
TelemetryLog load_telemetry(const std::string& path);

/// Prometheus text exposition (version 0.0.4) of a registry snapshot:
/// counters and gauges as-is, histograms with cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`. Metric names are
/// prefixed "actnet_" with non-alphanumerics mapped to '_'.
void write_prometheus(std::ostream& os,
                      const std::vector<Registry::Sample>& metrics);

/// Starts (once) a process-lifetime sampler over default_registry() and
/// returns it; returns nullptr when cfg.interval_ms <= 0. Also turns the
/// profiler on, so scopes constructed afterwards record. The sampler stops
/// (and writes its profile record) at process exit. Repeated calls return
/// the first sampler.
Sampler* start_global_sampler(const TelemetryConfig& cfg);
/// The sampler start_global_sampler created, or nullptr.
Sampler* global_sampler();

}  // namespace actnet::obs
