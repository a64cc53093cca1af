#include "core/parallel.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/fsio.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace actnet::core {
namespace {

bool wants_impacts(PrefetchScope s) {
  return s == PrefetchScope::kImpacts || s == PrefetchScope::kAll;
}
bool wants_grid_impacts(PrefetchScope s) {
  return s == PrefetchScope::kCompressionTable ||
         s == PrefetchScope::kAppProfiles || wants_impacts(s);
}
bool wants_profiles(PrefetchScope s) {
  return s == PrefetchScope::kAppProfiles || s == PrefetchScope::kAll;
}
bool wants_baselines(PrefetchScope s) {
  return wants_profiles(s) || s == PrefetchScope::kPairs;
}
bool wants_pairs(PrefetchScope s) {
  return s == PrefetchScope::kPairs || s == PrefetchScope::kAll;
}

const char* scope_name(PrefetchScope s) {
  switch (s) {
    case PrefetchScope::kCalibration: return "calibration";
    case PrefetchScope::kImpacts: return "impacts";
    case PrefetchScope::kCompressionTable: return "compression_table";
    case PrefetchScope::kAppProfiles: return "app_profiles";
    case PrefetchScope::kPairs: return "pairs";
    case PrefetchScope::kAll: return "all";
  }
  return "?";
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ParallelRunner::ParallelRunner(Campaign& campaign, int jobs)
    : campaign_(campaign),
      jobs_(jobs > 0 ? jobs
                     : (campaign.config().jobs > 0
                            ? campaign.config().jobs
                            : util::ThreadPool::default_jobs())) {}

PrefetchReport ParallelRunner::prefetch(
    PrefetchScope scope, const std::vector<apps::AppId>& app_set) {
  Campaign& c = campaign_;
  // Calibration (every scope needs it: utilization derives from it).
  std::vector<Experiment> wanted = {c.calibration_experiment()};

  // ImpactB runs: the CompressionB grid and the apps (the idle probe is
  // the calibration).
  if (wants_grid_impacts(scope))
    for (const CompressionConfig& cfg : c.compression_grid())
      wanted.push_back(c.impact_experiment(Workload::of_compression(cfg)));
  if (wants_profiles(scope) || wants_impacts(scope))
    for (const apps::AppId id : app_set)
      wanted.push_back(c.impact_experiment(Workload::of_app(id)));

  if (wants_baselines(scope))
    for (const apps::AppId id : app_set)
      wanted.push_back(c.baseline_experiment(id));

  // Degradation curves: one co-run per (app, CompressionB config).
  if (wants_profiles(scope))
    for (const apps::AppId id : app_set)
      for (const CompressionConfig& cfg : c.compression_grid())
        wanted.push_back(c.degradation_experiment(id, cfg));

  // Unordered co-run pairs (self-pairs included), normalized first<=second.
  if (wants_pairs(scope))
    for (std::size_t i = 0; i < app_set.size(); ++i)
      for (std::size_t j = i; j < app_set.size(); ++j)
        wanted.push_back(
            c.pair_experiment(std::min(app_set[i], app_set[j]),
                              std::max(app_set[i], app_set[j])));

  std::vector<std::string> cached = c.drop_cached(wanted);
  return run(scope_name(scope), std::move(wanted), std::move(cached));
}

PrefetchReport ParallelRunner::run(const std::string& label,
                                   std::vector<Experiment> pending,
                                   std::vector<std::string> cached_keys) {
  const auto t_start = std::chrono::steady_clock::now();
  PrefetchReport report;
  report.jobs = jobs_;
  report.run.workers = jobs_;
  report.executed = pending.size();
  report.cached = cached_keys.size();

  obs::Registry& reg = obs::default_registry();
  reg.counter("core.jobs.executed").inc(pending.size());
  reg.counter("core.jobs.cached").inc(cached_keys.size());
  reg.counter("core.scope." + label).inc();

  // The per-job stream rides the run report's switch.
  const std::string& report_path = campaign_.config().report_path;
  std::optional<obs::JobStreamWriter> stream;
  if (!report_path.empty()) {
    stream.emplace(obs::job_stream_path(report_path));
    std::vector<std::string> pending_keys;
    pending_keys.reserve(pending.size());
    for (const Experiment& e : pending) pending_keys.push_back(e.key);
    stream->begin(label, jobs_, cached_keys, pending_keys);
  }
  obs::JobStreamWriter* const sink = stream ? &*stream : nullptr;

  // Pre-size the stats table (cached entries first) so worker threads can
  // write their own rows by index without reallocation or locking.
  report.run.jobs.resize(cached_keys.size() + pending.size());
  for (std::size_t i = 0; i < cached_keys.size(); ++i) {
    report.run.jobs[i].key = std::move(cached_keys[i]);
    report.run.jobs[i].cached = true;
  }
  const std::size_t base = cached_keys.size();

  if (!pending.empty()) {
    ACTNET_INFO("parallel campaign: " << pending.size() << " experiments on "
                                      << jobs_ << " worker(s) ("
                                      << report.cached << " cached)");

    // One sorted single-writer flush at the end keeps the cache bytes
    // independent of worker scheduling.
    campaign_.db().set_deferred_flush(true);
    {
      util::ThreadPool pool(
          static_cast<int>(std::min<std::size_t>(jobs_, pending.size())));
      std::vector<std::future<void>> futures;
      futures.reserve(pending.size());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Experiment& e = pending[i];
        obs::JobStats& stats = report.run.jobs[base + i];
        stats.key = e.key;
        futures.push_back(pool.submit([&e, &stats, sink] {
          const auto t0 = std::chrono::steady_clock::now();
          // Binds Cluster::run_for's add_job_stats() calls on this worker
          // thread to this job's row for the duration of the experiment.
          obs::JobStatsScope bind(&stats);
          e.run();
          stats.wall_ms = elapsed_ms(t0);
          if (sink != nullptr) sink->job(stats);
        }));
      }
      std::exception_ptr first_error;
      for (auto& f : futures) {
        try {
          f.get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      campaign_.db().set_deferred_flush(false);
      if (first_error) std::rethrow_exception(first_error);
    }
  }

  report.run.wall_ms = elapsed_ms(t_start);

  // Fold the registry's counter totals into the report so engine and
  // flow-forward health (events executed, flow-forwards, demotions) ship
  // with the campaign summary. Every experiment's owners were destroyed
  // with it, so their counts are already published.
  for (const auto& s : reg.snapshot()) {
    if (s.kind == 'c') {
      report.run.metrics.push_back(obs::MetricSample{s.name, s.value});
    } else if (s.kind == 'h' && s.count > 0) {
      report.run.hists.push_back(obs::HistogramSample{
          s.name, s.count, s.value, s.p50_bound, s.p90_bound, s.p99_bound});
    }
  }

  if (stream) {
    stream->end(report.run.wall_ms, report.run.worker_utilization(),
                obs::profiling_enabled() ? obs::profile_snapshot()
                                         : std::vector<obs::ProfEntry>{});
    {
      // Scoped so the JSON lands on disk before the (interruptible)
      // terminal output below.
      const std::string dir_err = util::ensure_parent_dir(report_path);
      if (!dir_err.empty()) ACTNET_WARN(dir_err);
      std::ofstream out(report_path, std::ios::trunc);
      if (out.good()) {
        report.run.write_json(out);
        ACTNET_INFO("run report written to " << report_path);
      } else {
        ACTNET_WARN("cannot write run report " << report_path);
      }
    }
    report.run.print(std::cerr);
  }
  return report;
}

}  // namespace actnet::core
