// The observability pipeline's own parts: the per-job stream's line format
// (the report-path-derived file name, JSONL round trip, torn tail, flipped
// byte, parent-directory creation, an unwritable path degrading to a
// warning) and the subsystem self-profiler. The end-to-end claim, that a
// campaign with the stream on is byte-identical to one with it off, lives
// in test_obs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "obs/report.h"
#include "util/fsio.h"

namespace actnet {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("actnet_telemetry_test_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

obs::JobStats job(const std::string& key, double wall_ms, double sim_ms,
                 std::uint64_t events) {
  obs::JobStats j;
  j.key = key;
  j.wall_ms = wall_ms;
  j.sim_ms = sim_ms;
  j.events = events;
  return j;
}

TEST(JobStream, PathSitsBesideTheReport) {
  EXPECT_EQ(obs::job_stream_path("out/run_report.json"),
            "out/run_report.jobs.jsonl");
  EXPECT_EQ(obs::job_stream_path("report"), "report.jobs.jsonl");
}

TEST(JobStream, RoundTripPreservesEveryRecord) {
  const std::string path = temp_path("stream_roundtrip") + ".jsonl";
  std::filesystem::remove(path);
  {
    obs::JobStreamWriter w(path);
    w.begin("pairs", 4, {"calibration"}, {"pair/A/B", "odd \"key\\"});
    w.job(job("pair/A/B", 12.345678901234567, 0.1, 123456789));
    w.job(job("odd \"key\\", 1e-3, 2.5, 0));
    w.end(20.0, 0.625,
          {obs::ProfEntry{"engine", 1500, 3},
           obs::ProfEntry{"engine;net", 700, 2}});
  }
  const obs::JobStreamLog log = obs::load_job_stream(path);
  EXPECT_EQ(log.corrupt_lines, 0u);
  ASSERT_EQ(log.prefetches.size(), 1u);
  const obs::PrefetchLog& p = log.prefetches[0];
  EXPECT_EQ(p.scope, "pairs");
  EXPECT_EQ(p.workers, 4);
  EXPECT_EQ(p.cached, std::vector<std::string>{"calibration"});
  EXPECT_EQ(p.pending,
            (std::vector<std::string>{"pair/A/B", "odd \"key\\"}));
  ASSERT_EQ(p.jobs.size(), 2u);
  // Doubles come back bit-exact.
  EXPECT_EQ(p.jobs[0].key, "pair/A/B");
  EXPECT_EQ(p.jobs[0].wall_ms, 12.345678901234567);
  EXPECT_EQ(p.jobs[0].sim_ms, 0.1);
  EXPECT_EQ(p.jobs[0].events, 123456789u);
  EXPECT_EQ(p.jobs[1].key, "odd \"key\\");
  EXPECT_EQ(p.jobs[1].wall_ms, 1e-3);
  EXPECT_TRUE(p.ended);
  EXPECT_EQ(p.wall_ms, 20.0);
  EXPECT_EQ(p.worker_utilization, 0.625);
  EXPECT_TRUE(p.unfinished().empty());
  using Frame = std::pair<std::string, std::uint64_t>;
  EXPECT_EQ(log.profile, (std::vector<Frame>{{"engine", 1500},
                                             {"engine;net", 700}}));
  std::filesystem::remove(path);
}

TEST(JobStream, TornTailAndFlippedByteAreSkippedAndCounted) {
  const std::string path = temp_path("stream_torn") + ".jsonl";
  std::filesystem::remove(path);
  {
    obs::JobStreamWriter w(path);
    w.begin("impacts", 2, {}, {"impact/a", "impact/b", "impact/c"});
    w.job(job("impact/a", 10, 1, 100));
    w.job(job("impact/b", 20, 1, 200));
    w.job(job("impact/c", 30, 1, 300));
  }
  // Crash mid-append: keep everything but the second half of the last line.
  const std::string bytes = file_bytes(path);
  const std::size_t last = bytes.rfind('\n', bytes.size() - 2) + 1;
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, last) << bytes.substr(last, 20);  // no newline
  }
  const obs::JobStreamLog torn = obs::load_job_stream(path);
  EXPECT_EQ(torn.corrupt_lines, 1u);
  ASSERT_EQ(torn.prefetches.size(), 1u);
  EXPECT_EQ(torn.prefetches[0].jobs.size(), 2u);
  EXPECT_FALSE(torn.prefetches[0].ended);
  EXPECT_EQ(torn.prefetches[0].unfinished(),
            std::vector<std::string>{"impact/c"});

  // A byte corrupted in place in a middle record is skipped too.
  {
    std::string flipped = file_bytes(path);
    flipped[flipped.find("\"wall_ms\": 20")] = 'W';
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << flipped;
  }
  const obs::JobStreamLog damaged = obs::load_job_stream(path);
  EXPECT_EQ(damaged.corrupt_lines, 2u);
  ASSERT_EQ(damaged.prefetches.size(), 1u);
  EXPECT_EQ(damaged.prefetches[0].unfinished(),
            (std::vector<std::string>{"impact/b", "impact/c"}));
  std::filesystem::remove(path);
}

TEST(JobStream, WriterCreatesParentDirs) {
  const std::string root = temp_path("stream_nested");
  const std::string path = root + "/a/b/run.jobs.jsonl";
  std::filesystem::remove_all(root);
  {
    obs::JobStreamWriter w(path);
    w.job(job("calibration", 1, 1, 1));
  }
  const obs::JobStreamLog log = obs::load_job_stream(path);
  ASSERT_EQ(log.prefetches.size(), 1u);  // a job without a begin record
  EXPECT_EQ(log.prefetches[0].scope, "");
  EXPECT_EQ(log.prefetches[0].jobs.size(), 1u);
  std::filesystem::remove_all(root);
}

TEST(JobStream, UnwritablePathDegradesToAWarning) {
  const std::string blocker = temp_path("stream_blocker");
  std::ofstream(blocker) << "not a directory";
  const std::string path = blocker + "/x/run.jobs.jsonl";
  const std::string err = util::ensure_parent_dir(path);
  EXPECT_NE(err.find(blocker), std::string::npos);  // error names the path

  obs::JobStreamWriter w(path);  // must not throw...
  w.begin("all", 1, {}, {"calibration"});
  w.job(job("calibration", 1, 1, 1));
  w.end(1, 1, {});
  EXPECT_FALSE(std::filesystem::exists(path));  // ...and records nothing
  std::filesystem::remove(blocker);
}

TEST(Profiler, SelfTimeNests) {
  const bool prof_before = obs::profiling_enabled();
  obs::reset_profile();
  obs::set_profiling_enabled(true);
  {
    obs::ProfScope outer(obs::Subsystem::kEngine);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::ProfScope inner(obs::Subsystem::kNet);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  obs::set_profiling_enabled(prof_before);

  bool saw_engine = false, saw_engine_net = false;
  for (const obs::ProfEntry& e : obs::profile_snapshot()) {
    if (e.stack == "engine") {
      saw_engine = true;
      EXPECT_EQ(e.count, 1u);
      EXPECT_GT(e.self_ns, 0u);
    }
    if (e.stack == "engine;net") {
      saw_engine_net = true;
      EXPECT_EQ(e.count, 1u);
      EXPECT_GT(e.self_ns, 1'000'000u);  // the inner 2 ms sleep
    }
  }
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_engine_net);
  EXPECT_GT(obs::profile_busy_ns(obs::Subsystem::kEngine), 0u);
  EXPECT_GT(obs::profile_busy_ns(obs::Subsystem::kNet), 0u);
  obs::reset_profile();
}

TEST(Profiler, DisabledScopesAreInert) {
  const bool prof_before = obs::profiling_enabled();
  obs::set_profiling_enabled(false);
  obs::reset_profile();
  {
    obs::ProfScope scope(obs::Subsystem::kValid);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(obs::profile_busy_ns(obs::Subsystem::kValid), 0u);
  EXPECT_TRUE(obs::profile_snapshot().empty());
  obs::set_profiling_enabled(prof_before);
}

}  // namespace
}  // namespace actnet
