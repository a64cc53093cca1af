#include "core/parallel.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <utility>

#include "core/keys.h"
#include "core/probes.h"
#include "obs/metrics.h"
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

void ParallelRunner::collect(PrefetchScope scope, std::vector<Pending>& jobs,
                             std::vector<std::string>& cached_keys) {
  Campaign& c = campaign_;
  const MeasureOptions& opts = c.options();
  auto add = [&](std::string key, Job fn) {
    if (c.db().get(key).has_value()) {
      cached_keys.push_back(std::move(key));
      return;
    }
    jobs.push_back(Pending{std::move(key), std::move(fn)});
  };

  // Calibration (every scope needs it: utilization derives from it).
  add(keys::calibration(),
      [&c, &opts] { c.record_calibration(calibrate(opts)); });

  // ImpactB runs: the CompressionB grid, the six apps, and the idle probe.
  std::vector<Workload> impacts;
  if (wants_grid_impacts(scope))
    for (const CompressionConfig& cfg : c.compression_grid())
      impacts.push_back(Workload::of_compression(cfg));
  if (wants_profiles(scope) || wants_impacts(scope))
    for (const auto& app : apps::all_apps())
      impacts.push_back(Workload::of_app(app.id));
  if (wants_impacts(scope)) impacts.push_back(Workload::idle());
  for (const Workload& w : impacts)
    add(keys::impact(w), [&c, &opts, w] {
      c.record_impact(w, run_impact_experiment(w, opts));
    });

  // Per-app baselines.
  if (wants_baselines(scope))
    for (const auto& app : apps::all_apps())
      add(keys::baseline(app.id), [&c, &opts, id = app.id] {
        c.record_baseline(id, measure_app_alone_us(id, opts));
      });

  // Degradation curves: one co-run per (app, CompressionB config).
  if (wants_profiles(scope))
    for (const auto& app : apps::all_apps())
      for (const CompressionConfig& cfg : c.compression_grid())
        add(keys::degradation(app.id, cfg), [&c, &opts, id = app.id, cfg] {
          c.record_degradation(
              id, cfg, measure_app_vs_compression_us(id, cfg, opts));
        });

  // Unordered co-run pairs (self-pairs included), normalized first<=second.
  if (wants_pairs(scope)) {
    const auto& all = apps::all_apps();
    for (std::size_t i = 0; i < all.size(); ++i)
      for (std::size_t j = i; j < all.size(); ++j) {
        const apps::AppId a = std::min(all[i].id, all[j].id);
        const apps::AppId b = std::max(all[i].id, all[j].id);
        add(keys::pair(a, b), [&c, &opts, a, b] {
          c.record_pair(a, b, measure_pair_us(a, b, opts));
        });
      }
  }
}

PrefetchReport ParallelRunner::prefetch(PrefetchScope scope) {
  const auto t_start = std::chrono::steady_clock::now();
  PrefetchReport report;
  report.jobs = jobs_;
  report.run.workers = jobs_;

  std::vector<Pending> pending;
  std::vector<std::string> cached_keys;
  collect(scope, pending, cached_keys);
  report.executed = pending.size();
  report.cached = cached_keys.size();

  obs::Registry& reg = obs::default_registry();
  reg.counter("core.jobs.executed").inc(pending.size());
  reg.counter("core.jobs.cached").inc(cached_keys.size());
  reg.counter(std::string("core.scope.") + scope_name(scope)).inc();

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
      util::ThreadPool pool(jobs_);
      std::vector<std::future<void>> futures;
      futures.reserve(pending.size());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Pending& p = pending[i];
        obs::JobStats& stats = report.run.jobs[base + i];
        stats.key = p.key;
        futures.push_back(pool.submit([&p, &stats] {
          const auto t0 = std::chrono::steady_clock::now();
          // Binds Cluster::run_for's add_job_stats() calls on this worker
          // thread to this job's row for the duration of the experiment.
          obs::JobStatsScope scope(&stats);
          p.fn();
          stats.wall_ms = elapsed_ms(t0);
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

  const std::string& report_path = campaign_.config().report_path;
  if (!report_path.empty()) {
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
