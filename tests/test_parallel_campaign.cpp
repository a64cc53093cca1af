// Parallel campaign executor: a reduced campaign prefetched with 1 worker
// and with 8 workers must leave byte-identical measurement caches, make
// identical predictions and publish identical counts into the metrics
// registry — determinism is what lets ACTNET_JOBS be a pure speed knob.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/parallel.h"
#include "obs/metrics.h"

namespace actnet::core {
namespace {

std::string temp_cache(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("actnet_parallel_test_" + tag + "_" + std::to_string(::getpid()) +
           ".tsv"))
      .string();
}

/// Reduced campaign: tiny window (>= the 50-probe-sample floor) and a
/// two-point CompressionB grid instead of the paper's 40.
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

TEST(ParallelCampaign, WorkerCountDoesNotChangeResults) {
  const std::string serial_path = temp_cache("serial");
  const std::string parallel_path = temp_cache("parallel");
  std::filesystem::remove(serial_path);
  std::filesystem::remove(parallel_path);

  std::vector<std::uint64_t> serial_counts;
  std::vector<std::uint64_t> parallel_counts;
  {
    const std::vector<std::uint64_t> before = published_counts();
    Campaign serial(reduced_config(serial_path, 1));
    const PrefetchReport r = ParallelRunner(serial).prefetch_all();
    EXPECT_EQ(r.jobs, 1);
    EXPECT_GT(r.executed, 0u);
    serial_counts = published_since(before);
  }
  {
    const std::vector<std::uint64_t> before = published_counts();
    Campaign parallel(reduced_config(parallel_path, 8));
    const PrefetchReport r = ParallelRunner(parallel).prefetch_all();
    EXPECT_EQ(r.jobs, 8);
    EXPECT_GT(r.executed, 0u);
    parallel_counts = published_since(before);
  }

  // Eight workers folding their experiments' counts into the shared
  // registry concurrently must add up to exactly the serial totals.
  for (std::size_t i = 0; i < kPublishedCounters.size(); ++i)
    EXPECT_EQ(serial_counts[i], parallel_counts[i]) << kPublishedCounters[i];
  EXPECT_GT(serial_counts[0], 0u);  // events executed
  EXPECT_GT(serial_counts[2], 0u);  // messages sent

  // The flushed caches must match byte for byte.
  const std::string serial_bytes = file_bytes(serial_path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, file_bytes(parallel_path));

  // And every model prediction for every ordered pair must be identical.
  Campaign a(reduced_config(serial_path, 1));
  Campaign b(reduced_config(parallel_path, 8));
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

  std::filesystem::remove(serial_path);
  std::filesystem::remove(parallel_path);
}

TEST(ParallelCampaign, SecondPrefetchFindsEverythingCached) {
  Campaign c(reduced_config("", 2));  // in-memory cache
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
  Campaign c(reduced_config("", 2));
  ParallelRunner r(c, 5);
  const PrefetchReport report = r.prefetch(PrefetchScope::kCalibration);
  EXPECT_EQ(report.jobs, 5);
}

TEST(ParallelCampaign, AccessorsAfterPrefetchHitTheCache) {
  Campaign c(reduced_config("", 4));
  ParallelRunner(c).prefetch(PrefetchScope::kCompressionTable);
  const std::size_t entries = c.db().size();
  // Lazy accessors must be satisfied entirely from cache: no new entries.
  c.compression_table();
  EXPECT_EQ(c.db().size(), entries);
}

}  // namespace
}  // namespace actnet::core
