// Parallel campaign executor: ParallelRunner is the only code that runs an
// experiment. A prefetch skips what is cached; a cold Campaign accessor
// hands the runner exactly the experiments it lacks, in one batch, and
// leaves the same cache entries a prefetch would; a warm accessor runs
// nothing. (That the worker count does not change results is proven by
// test_obs, whose reference run is serial and whose candidate uses 8.)
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/keys.h"
#include "core/parallel.h"
#include "equivalence_harness.h"
#include "obs/report.h"

namespace actnet::core {
namespace {

using testing::reduced_config;
using testing::temp_cache;

CampaignConfig with_jobs(CampaignConfig c, int jobs) {
  c.jobs = jobs;
  return c;
}

TEST(ParallelCampaign, SecondPrefetchFindsEverythingCached) {
  Campaign c(with_jobs(reduced_config(""), 2));  // in-memory cache
  const PrefetchReport first =
      ParallelRunner(c).prefetch(PrefetchScope::kCalibration);
  EXPECT_EQ(first.executed, 1u);
  EXPECT_EQ(first.cached, 0u);
  const PrefetchReport again =
      ParallelRunner(c).prefetch(PrefetchScope::kCalibration);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.cached, 1u);
}

TEST(ParallelCampaign, ExplicitJobsOverridesConfig) {
  Campaign c(with_jobs(reduced_config(""), 2));
  ParallelRunner r(c, 5);
  const PrefetchReport report = r.prefetch(PrefetchScope::kCalibration);
  EXPECT_EQ(report.jobs, 5);
}

TEST(ParallelCampaign, AccessorsAfterPrefetchHitTheCache) {
  Campaign c(reduced_config(""));
  ParallelRunner(c).prefetch(PrefetchScope::kCompressionTable);
  const std::size_t entries = c.db().size();
  // Lazy accessors must be satisfied entirely from cache: no new entries.
  c.compression_table();
  EXPECT_EQ(c.db().size(), entries);
}

TEST(ParallelCampaign, ColdAccessorRunsItsExperimentsAsOneBatch) {
  const std::string cold_path = temp_cache("cold_accessor");
  const std::string full_path = temp_cache("prefetch_all");
  const std::string cold_report = temp_cache("cold_report") + ".json";
  const std::string full_report = temp_cache("full_report") + ".json";
  for (const std::string& p :
       {cold_path, full_path, obs::job_stream_path(cold_report),
        obs::job_stream_path(full_report)})
    std::filesystem::remove(p);

  // The profile's experiments: the calibration, the grid impacts, the
  // app's impact and baseline, and one degradation per grid point.
  const apps::AppId app = apps::AppId::kMCB;
  CampaignConfig cold_cfg = reduced_config(cold_path);
  cold_cfg.report_path = cold_report;
  std::set<std::string> expected = {keys::calibration(),
                                    keys::impact(Workload::of_app(app)),
                                    keys::baseline(app)};
  for (const CompressionConfig& cfg : cold_cfg.compression_grid) {
    expected.insert(keys::impact(Workload::of_compression(cfg)));
    expected.insert(keys::degradation(app, cfg));
  }

  std::vector<std::string> cold_values;
  {
    Campaign cold(cold_cfg);
    const AppProfile& profile = cold.app_profile(app);
    EXPECT_EQ(profile.degradation_pct.size(), cold_cfg.compression_grid.size());
    for (const std::string& key : expected)
      cold_values.push_back(cold.db().get(key).value_or("<missing>"));
    EXPECT_EQ(cold.db().size(), expected.size() + 1);  // + the fingerprint
  }
  const obs::JobStreamLog cold_stream =
      obs::load_job_stream(obs::job_stream_path(cold_report));
  ASSERT_EQ(cold_stream.prefetches.size(), 1u);  // exactly one begin record
  const obs::PrefetchLog& batch = cold_stream.prefetches[0];
  EXPECT_EQ(batch.scope, "app_profile");
  EXPECT_TRUE(batch.cached.empty());
  EXPECT_EQ(std::set<std::string>(batch.pending.begin(), batch.pending.end()),
            expected);
  EXPECT_EQ(batch.pending.size(), expected.size());
  EXPECT_TRUE(batch.ended);
  EXPECT_TRUE(batch.unfinished().empty());

  // A prefetch_all campaign measures the same entries byte for byte, and
  // afterwards the whole Fig 8/9 sweep runs nothing: no second prefetch in
  // its stream.
  CampaignConfig full_cfg = reduced_config(full_path);
  full_cfg.report_path = full_report;
  Campaign full(full_cfg);
  ParallelRunner(full).prefetch_all();
  std::vector<std::string> full_values;
  for (const std::string& key : expected)
    full_values.push_back(full.db().get(key).value_or("<missing>"));
  EXPECT_EQ(cold_values, full_values);

  // The cold prefetch_all simulates the idle probe once, as the
  // calibration: one pending key per experiment, and no idle impact.
  const std::vector<std::string> pending =
      obs::load_job_stream(obs::job_stream_path(full_report))
          .prefetches.at(0)
          .pending;
  const std::size_t n_apps = apps::all_apps().size();
  const std::size_t n_grid = full_cfg.compression_grid.size();
  EXPECT_EQ(pending.size(), 1 + n_grid + n_apps * (2 + n_grid) +
                                n_apps * (n_apps + 1) / 2);
  EXPECT_EQ(std::count(pending.begin(), pending.end(), keys::calibration()),
            1);
  EXPECT_EQ(std::count(pending.begin(), pending.end(),
                       keys::impact(Workload::idle())),
            0);
  EXPECT_FALSE(full.db().get(keys::impact(Workload::idle())).has_value());
  const std::size_t entries = full.db().size();
  for (const auto& victim : apps::all_apps())
    for (const auto& aggressor : apps::all_apps())
      full.predict_pair(victim.id, aggressor.id);
  EXPECT_EQ(full.db().size(), entries);
  EXPECT_EQ(obs::load_job_stream(obs::job_stream_path(full_report))
                .prefetches.size(),
            1u);

  for (const std::string& p :
       {cold_path, full_path, cold_report, full_report,
        obs::job_stream_path(cold_report), obs::job_stream_path(full_report)})
    std::filesystem::remove(p);
}

}  // namespace
}  // namespace actnet::core
