// Observability must be non-perturbing: a campaign run with the profiler,
// tracing, the run report and its per-job stream enabled on 8 workers must
// leave a byte-identical measurement cache — and identical model
// predictions and registry counts — to a serial run with all of them off.
// (Metrics have no switch: every run publishes them.) This is the repo's
// "observe, never steer" guarantee, and since the two runs also differ in
// worker count, the proof that ACTNET_JOBS is a pure speed knob. The
// stream's line format and the self-profiler are checked in
// test_telemetry_pipeline.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/parallel.h"
#include "equivalence_harness.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"

namespace actnet::core {
namespace {

using testing::file_bytes;
using testing::reduced_config;
using testing::temp_cache;

CampaignConfig with_jobs(CampaignConfig c, int jobs) {
  c.jobs = jobs;
  return c;
}

/// Registry counts every experiment's owners publish when destroyed.
const std::vector<std::string> kPublishedCounters = {
    "sim.engine.events_executed", "sim.engine.events_scheduled",
    "net.messages_sent",          "net.packets_delivered",
    "net.link.drr_rounds",        "net.flowfwd.messages",
    "net.flowfwd.demotions",      "net.flowfwd.fallback_packets",
};

std::vector<std::uint64_t> published_counts() {
  std::vector<std::uint64_t> out;
  for (const std::string& name : kPublishedCounters)
    out.push_back(obs::default_registry().counter(name).value());
  return out;
}

/// Per-counter growth of the registry from `before` to now.
std::vector<std::uint64_t> published_since(
    const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out = published_counts();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= before[i];
  return out;
}

TEST(Observability, EnabledTracingRunMatchesDisabledSerialRun) {
  const std::string off_path = temp_cache("obs_off");
  const std::string on_path = temp_cache("obs_on");
  const std::string trace_dir = temp_cache("obs_traces") + ".d";
  const std::string report_path = temp_cache("obs_report") + ".json";
  const std::string stream_path = obs::job_stream_path(report_path);
  std::filesystem::remove(off_path);
  std::filesystem::remove(on_path);
  std::filesystem::remove(stream_path);
  std::filesystem::create_directories(trace_dir);

  const bool prof_before = obs::profiling_enabled();

  // Reference: serial, profiler and tracing off.
  obs::set_profiling_enabled(false);
  std::vector<std::uint64_t> off_counts;
  {
    const std::vector<std::uint64_t> before = published_counts();
    Campaign off(with_jobs(reduced_config(off_path), 1));
    const PrefetchReport r = ParallelRunner(off).prefetch_all();
    EXPECT_EQ(r.jobs, 1);
    EXPECT_GT(r.executed, 0u);
    off_counts = published_since(before);
  }

  // Candidate: 8 workers, profiler on, every experiment tracing into
  // trace_dir, run report and per-job stream on.
  obs::set_profiling_enabled(true);
  std::size_t executed = 0;
  std::vector<std::uint64_t> on_counts;
  {
    const std::vector<std::uint64_t> before = published_counts();
    CampaignConfig cfg = with_jobs(reduced_config(on_path), 8);
    cfg.opts.cluster.trace_path = trace_dir + "/trace.json";
    cfg.report_path = report_path;
    Campaign on(cfg);
    const PrefetchReport r = ParallelRunner(on).prefetch_all();
    EXPECT_EQ(r.jobs, 8);
    EXPECT_GT(r.executed, 0u);

    // The run report covered every job and recorded real work.
    EXPECT_EQ(r.run.jobs.size(), r.executed + r.cached);
    EXPECT_GT(r.run.total_events(), 0u);
    EXPECT_GT(r.run.wall_ms, 0.0);
    executed = r.executed;
    on_counts = published_since(before);
  }
  obs::set_profiling_enabled(prof_before);

  // Eight workers folding their experiments' counts into the shared
  // registry concurrently must add up to exactly the serial totals.
  for (std::size_t i = 0; i < kPublishedCounters.size(); ++i)
    EXPECT_EQ(off_counts[i], on_counts[i]) << kPublishedCounters[i];
  EXPECT_GT(off_counts[0], 0u);  // events executed
  EXPECT_GT(off_counts[2], 0u);  // messages sent

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
  // ...the run report landed on disk...
  EXPECT_NE(file_bytes(report_path).find("\"jobs\""), std::string::npos);
  // ...and so did the per-job stream: undamaged, one record per executed
  // job (each a pending key, none twice), closed by an end record that
  // carries the profile.
  const obs::JobStreamLog stream = obs::load_job_stream(stream_path);
  EXPECT_EQ(stream.corrupt_lines, 0u);
  ASSERT_EQ(stream.prefetches.size(), 1u);
  const obs::PrefetchLog& p = stream.prefetches[0];
  EXPECT_EQ(p.scope, "all");
  EXPECT_EQ(p.workers, 8);
  EXPECT_EQ(p.pending.size(), executed);
  EXPECT_EQ(p.jobs.size(), executed);
  EXPECT_TRUE(p.ended);
  EXPECT_TRUE(p.unfinished().empty());
  std::set<std::string> keys;
  for (const obs::JobStats& j : p.jobs) {
    EXPECT_TRUE(keys.insert(j.key).second) << j.key;
    EXPECT_GT(j.events, 0u) << j.key;
  }
  EXPECT_FALSE(stream.profile.empty());

  // Every model prediction (the Fig 8 pipeline) must be identical too.
  Campaign a(with_jobs(reduced_config(off_path), 1));
  Campaign b(with_jobs(reduced_config(on_path), 1));
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
  std::filesystem::remove(stream_path);
  std::filesystem::remove_all(trace_dir);
}

TEST(Observability, RunReportSeparatesCachedFromExecuted) {
  Campaign c(with_jobs(reduced_config(""), 2));  // in-memory cache
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
