// Observability must be non-perturbing: a campaign run with the profiler
// and tracing enabled on 8 workers must leave a byte-identical measurement
// cache — and identical model predictions — to a serial run with both off.
// (Metrics have no switch: every run publishes them.) This is the repo's
// "observe, never steer" guarantee.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace actnet::core {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("actnet_obs_test_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

/// Reduced campaign: tiny window (>= the 50-probe-sample floor) and a
/// two-point CompressionB grid instead of the paper's 40 — the same shape
/// as the parallel-campaign determinism test.
CampaignConfig reduced_config(const std::string& cache_path, int jobs) {
  CampaignConfig c;
  c.opts.window = units::ms(8);
  c.opts.warmup = units::ms(2);
  c.cache_path = cache_path;
  c.jobs = jobs;
  c.compression_grid = {
      CompressionConfig{1, 2.5e6, 1, units::KiB(40)},
      CompressionConfig{4, 2.5e5, 10, units::KiB(40)},
  };
  return c;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Observability, EnabledTracingRunMatchesDisabledSerialRun) {
  const std::string off_path = temp_path("off") + ".tsv";
  const std::string on_path = temp_path("on") + ".tsv";
  const std::string trace_dir = temp_path("traces");
  const std::string report_path = temp_path("report") + ".json";
  std::filesystem::remove(off_path);
  std::filesystem::remove(on_path);
  std::filesystem::create_directories(trace_dir);

  const bool prof_before = obs::profiling_enabled();

  // Reference: serial, profiler and tracing off.
  obs::set_profiling_enabled(false);
  {
    Campaign off(reduced_config(off_path, 1));
    const PrefetchReport r = ParallelRunner(off).prefetch_all();
    EXPECT_GT(r.executed, 0u);
  }

  // Candidate: 8 workers, profiler on, every experiment tracing into
  // trace_dir, run report on.
  obs::set_profiling_enabled(true);
  {
    CampaignConfig cfg = reduced_config(on_path, 8);
    cfg.opts.cluster.trace_path = trace_dir + "/trace.json";
    cfg.report_path = report_path;
    Campaign on(cfg);
    const PrefetchReport r = ParallelRunner(on).prefetch_all();
    EXPECT_GT(r.executed, 0u);

    // The run report covered every job and recorded real work.
    EXPECT_EQ(r.run.jobs.size(), r.executed + r.cached);
    EXPECT_GT(r.run.total_events(), 0u);
    EXPECT_GT(r.run.wall_ms, 0.0);
  }
  obs::set_profiling_enabled(prof_before);

  // Observability must not have perturbed a single simulated byte.
  const std::string off_bytes = file_bytes(off_path);
  ASSERT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, file_bytes(on_path));

  // Metrics actually flowed...
  EXPECT_GT(
      obs::default_registry().counter("sim.engine.events_executed").value(),
      0u);
  // ...traces were written (one file per experiment, labeled)...
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir))
    traces += entry.is_regular_file() ? 1 : 0;
  EXPECT_GT(traces, 0u);
  // ...and the run report landed on disk.
  EXPECT_NE(file_bytes(report_path).find("\"jobs\""), std::string::npos);

  // Every model prediction (the Fig 8 pipeline) must be identical too.
  Campaign a(reduced_config(off_path, 1));
  Campaign b(reduced_config(on_path, 1));
  const auto& apps = apps::all_apps();
  for (const auto& victim : apps)
    for (const auto& aggressor : apps) {
      const auto pa = a.predict_pair(victim.id, aggressor.id);
      const auto pb = b.predict_pair(victim.id, aggressor.id);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t m = 0; m < pa.size(); ++m) {
        EXPECT_EQ(pa[m].model, pb[m].model);
        EXPECT_EQ(pa[m].predicted_pct, pb[m].predicted_pct);
        EXPECT_EQ(pa[m].measured_pct, pb[m].measured_pct);
      }
    }

  std::filesystem::remove(off_path);
  std::filesystem::remove(on_path);
  std::filesystem::remove(report_path);
  std::filesystem::remove_all(trace_dir);
}

TEST(Observability, RunReportSeparatesCachedFromExecuted) {
  Campaign c(reduced_config("", 2));  // in-memory cache
  const PrefetchReport first =
      ParallelRunner(c).prefetch(PrefetchScope::kCalibration);
  ASSERT_EQ(first.run.jobs.size(), 1u);
  EXPECT_FALSE(first.run.jobs[0].cached);
  EXPECT_GT(first.run.jobs[0].events, 0u);
  EXPECT_GT(first.run.jobs[0].sim_ms, 0.0);
  const PrefetchReport again =
      ParallelRunner(c).prefetch(PrefetchScope::kCalibration);
  ASSERT_EQ(again.run.jobs.size(), 1u);
  EXPECT_TRUE(again.run.jobs[0].cached);
  EXPECT_EQ(again.run.jobs[0].events, 0u);
}

}  // namespace
}  // namespace actnet::core
