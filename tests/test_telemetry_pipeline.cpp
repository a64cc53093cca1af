// The live-telemetry pipeline: sampler lifecycle, per-interval delta
// correctness, crash-safe JSONL round-trips (including torn tails), the
// Prometheus exposition format, the subsystem self-profiler, the stall
// watchdog — and the invariant that matters most: a campaign run with the
// sampler ticking is byte-identical to one without.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "util/fsio.h"

namespace actnet::obs {
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

TelemetryConfig test_config(const std::string& out_path) {
  TelemetryConfig cfg;
  cfg.interval_ms = 0;  // tests drive sample_once() deterministically
  cfg.out_path = out_path;
  cfg.stall_ms = 0;
  return cfg;
}

TEST(Sampler, StartStopIdempotentAndStopWithoutStartIsSafe) {
  Registry reg;
  reg.counter("sim.engine.events_executed");
  const std::string log = temp_path("lifecycle") + ".jsonl";
  std::filesystem::remove(log);
  {
    TelemetryConfig cfg = test_config(log);
    cfg.interval_ms = 5;
    Sampler s(cfg, &reg);
    EXPECT_FALSE(s.running());
    s.start();
    s.start();  // second start is a no-op
    EXPECT_TRUE(s.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    s.stop();
    EXPECT_FALSE(s.running());
    EXPECT_GT(s.samples_taken(), 0u);
    const std::uint64_t taken = s.samples_taken();
    s.stop();  // second stop is a no-op...
    EXPECT_EQ(s.samples_taken(), taken);
  }  // ...and so is the destructor's stop()
  const TelemetryLog loaded = load_telemetry(log);
  EXPECT_GT(loaded.samples.size(), 0u);
  EXPECT_EQ(loaded.corrupt_lines, 0u);
  std::filesystem::remove(log);
}

TEST(Sampler, DisabledCadenceNeverStarts) {
  Registry reg;
  Sampler s(test_config(""), &reg);
  s.start();
  EXPECT_FALSE(s.running());
  s.stop();
}

TEST(Sampler, DeltasMatchHandBumpedCounters) {
  Registry reg;
  Counter& events = reg.counter("sim.engine.events_executed");
  Counter& msgs = reg.counter("net.messages");
  Sampler s(test_config(""), &reg);

  events.inc(100);
  s.sample_once();
  events.inc(250);
  msgs.inc(7);
  s.sample_once();

  const std::vector<TelemetrySample> recent = s.recent();
  ASSERT_EQ(recent.size(), 2u);
  const std::vector<MetricRate> rates =
      compute_rates(recent[0], recent[1]);
  double events_delta = -1.0, msgs_delta = -1.0;
  for (const MetricRate& r : rates) {
    if (r.name == "sim.engine.events_executed") events_delta = r.delta;
    if (r.name == "net.messages") msgs_delta = r.delta;
  }
  EXPECT_EQ(events_delta, 250.0);
  EXPECT_EQ(msgs_delta, 7.0);
  // Rates scale the delta by the (positive) measured interval.
  EXPECT_GT(recent[1].t_ms, recent[0].t_ms);
}

TEST(Sampler, FlightRecorderIsBounded) {
  Registry reg;
  Counter& c = reg.counter("ticks");
  TelemetryConfig cfg = test_config("");
  cfg.keep = 4;
  Sampler s(cfg, &reg);
  for (int i = 0; i < 10; ++i) {
    c.inc();
    s.sample_once();
  }
  const std::vector<TelemetrySample> recent = s.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().seq, 6u);  // oldest kept
  EXPECT_EQ(recent.back().seq, 9u);
  EXPECT_EQ(s.samples_taken(), 10u);
}

TEST(Telemetry, JsonlRoundTripPreservesEveryKind) {
  Registry reg;
  reg.counter("a.count").inc(42);
  reg.gauge("b.level").set(2.5);
  Histogram& h = reg.histogram("c.lat");
  h.add(0);
  h.add(1);
  h.add(5);
  const std::string log = temp_path("roundtrip") + ".jsonl";
  std::filesystem::remove(log);
  {
    Sampler s(test_config(log), &reg);
    s.sample_once();
  }
  const TelemetryLog loaded = load_telemetry(log);
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(loaded.corrupt_lines, 0u);
  const TelemetrySample& s = loaded.samples[0];
  ASSERT_EQ(s.metrics.size(), 3u);  // sorted by name
  EXPECT_EQ(s.metrics[0].name, "a.count");
  EXPECT_EQ(s.metrics[0].kind, 'c');
  EXPECT_EQ(s.metrics[0].value, 42.0);
  EXPECT_EQ(s.metrics[1].name, "b.level");
  EXPECT_EQ(s.metrics[1].kind, 'g');
  EXPECT_EQ(s.metrics[1].value, 2.5);
  const Registry::Sample& hist = s.metrics[2];
  EXPECT_EQ(hist.kind, 'h');
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.sum, 6u);
  EXPECT_EQ(hist.p50_bound, 1u);
  EXPECT_EQ(hist.p99_bound, 7u);
  // Occupied buckets: {0}, {1}, [4,8) — cumulative 1, 2, 3.
  ASSERT_EQ(hist.buckets.size(), 3u);
  EXPECT_EQ(hist.buckets[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(hist.buckets[1], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
  EXPECT_EQ(hist.buckets[2], (std::pair<std::uint64_t, std::uint64_t>{7, 3}));
  std::filesystem::remove(log);
}

TEST(Telemetry, TornTailIsSkippedAndCounted) {
  Registry reg;
  Counter& c = reg.counter("events");
  const std::string log = temp_path("torn") + ".jsonl";
  std::filesystem::remove(log);
  {
    Sampler s(test_config(log), &reg);
    c.inc(10);
    s.sample_once();
    c.inc(10);
    s.sample_once();
    c.inc(10);
    s.sample_once();
  }
  // Crash mid-append: keep the first two records plus half of the third.
  const std::string bytes = file_bytes(log);
  std::size_t second_nl = bytes.find('\n', bytes.find('\n') + 1);
  ASSERT_NE(second_nl, std::string::npos);
  {
    std::ofstream out(log, std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, second_nl + 1)
        << bytes.substr(second_nl + 1, 20);  // torn tail, no newline
  }
  const TelemetryLog loaded = load_telemetry(log);
  EXPECT_EQ(loaded.samples.size(), 2u);
  EXPECT_EQ(loaded.corrupt_lines, 1u);
  EXPECT_EQ(loaded.samples[1].metrics[0].value, 20.0);

  // A corrupted-in-place middle record is also just skipped.
  {
    std::string flipped = file_bytes(log);
    flipped[flipped.find("10")] = '9';
    std::ofstream out(log, std::ios::trunc | std::ios::binary);
    out << flipped;
  }
  const TelemetryLog reloaded = load_telemetry(log);
  EXPECT_EQ(reloaded.samples.size(), 1u);
  EXPECT_EQ(reloaded.corrupt_lines, 2u);
  std::filesystem::remove(log);
}

TEST(Telemetry, PrometheusGoldenFormat) {
  Registry reg;
  reg.counter("a.count").inc(42);
  reg.gauge("b.level").set(2.5);
  Histogram& h = reg.histogram("c.lat");
  h.add(0);
  h.add(1);
  h.add(5);
  std::ostringstream os;
  write_prometheus(os, reg.snapshot());
  EXPECT_EQ(os.str(),
            "# TYPE actnet_a_count counter\n"
            "actnet_a_count 42\n"
            "# TYPE actnet_b_level gauge\n"
            "actnet_b_level 2.5\n"
            "# TYPE actnet_c_lat histogram\n"
            "actnet_c_lat_bucket{le=\"0\"} 1\n"
            "actnet_c_lat_bucket{le=\"1\"} 2\n"
            "actnet_c_lat_bucket{le=\"7\"} 3\n"
            "actnet_c_lat_bucket{le=\"+Inf\"} 3\n"
            "actnet_c_lat_sum 6\n"
            "actnet_c_lat_count 3\n");
}

TEST(Telemetry, PromFileIsPublishedAtomically) {
  Registry reg;
  reg.counter("events").inc(5);
  const std::string prom = temp_path("prom_dir") + "/metrics.prom";
  TelemetryConfig cfg = test_config("");
  cfg.prom_path = prom;  // parent dir does not exist yet
  Sampler s(cfg, &reg);
  s.sample_once();
  const std::string text = file_bytes(prom);
  EXPECT_NE(text.find("actnet_events 5"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(prom + ".tmp"));
  std::filesystem::remove_all(temp_path("prom_dir"));
}

TEST(Telemetry, SamplerCreatesParentDirsForOutPath) {
  Registry reg;
  reg.counter("events").inc(1);
  const std::string root = temp_path("nested");
  const std::string log = root + "/a/b/telemetry.jsonl";
  std::filesystem::remove_all(root);
  Sampler s(test_config(log), &reg);
  s.sample_once();
  EXPECT_TRUE(std::filesystem::exists(log));
  EXPECT_EQ(load_telemetry(log).samples.size(), 1u);
  std::filesystem::remove_all(root);
}

TEST(Telemetry, UnwritableOutPathDegradesToMemoryOnly) {
  const std::string file = temp_path("blocker");
  std::ofstream(file) << "not a directory";
  const std::string err = util::ensure_parent_dir(file + "/x/telemetry.jsonl");
  EXPECT_NE(err.find(file), std::string::npos);  // error names the path

  Registry reg;
  reg.counter("events").inc(1);
  Sampler s(test_config(file + "/x/telemetry.jsonl"), &reg);
  s.sample_once();  // must not throw
  EXPECT_EQ(s.recent().size(), 1u);
  std::filesystem::remove(file);
}

TEST(Profiler, SelfTimeNestsAndFeedsGauges) {
  const bool prof_before = profiling_enabled();
  reset_profile();
  set_profiling_enabled(true);
  {
    ProfScope outer(Subsystem::kEngine);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ProfScope inner(Subsystem::kNet);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  set_profiling_enabled(prof_before);

  bool saw_engine = false, saw_engine_net = false;
  for (const ProfEntry& e : profile_snapshot()) {
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
  EXPECT_GT(profile_busy_ns(Subsystem::kEngine), 0u);
  EXPECT_GT(profile_busy_ns(Subsystem::kNet), 0u);

  // The collapsed dump is flamegraph.pl input: "path self_ns" lines.
  std::ostringstream os;
  write_profile_collapsed(os);
  EXPECT_NE(os.str().find("engine;net "), std::string::npos);

  // Busy totals ride the registry as callback gauges.
  Registry reg;
  attach_profile_gauges(reg);
  bool saw_gauge = false;
  for (const Registry::Sample& m : reg.snapshot()) {
    if (m.name == "prof.net.busy_seconds") {
      saw_gauge = true;
      EXPECT_GT(m.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_gauge);
  reset_profile();
}

TEST(Profiler, DisabledScopesAreInert) {
  const bool prof_before = profiling_enabled();
  set_profiling_enabled(false);
  reset_profile();
  {
    ProfScope scope(Subsystem::kValid);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(profile_busy_ns(Subsystem::kValid), 0u);
  EXPECT_TRUE(profile_snapshot().empty());
  set_profiling_enabled(prof_before);
}

TEST(StallWatchdog, FlagsOncePerEpisodeAndRecovers) {
  Registry reg;
  Counter& events = reg.counter("sim.engine.events_executed");
  const std::string log = temp_path("stall") + ".jsonl";
  std::filesystem::remove(log);
  {
    TelemetryConfig cfg = test_config(log);
    cfg.stall_ms = 1;
    Sampler s(cfg, &reg);

    events.inc(100);
    s.sample_once();  // progress observed
    EXPECT_FALSE(s.stalled());

    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    s.sample_once();  // counter frozen past the window -> stall
    EXPECT_TRUE(s.stalled());
    EXPECT_EQ(s.stall_episodes(), 1u);

    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    s.sample_once();  // still frozen: one-shot, no second episode
    EXPECT_EQ(s.stall_episodes(), 1u);

    events.inc(1);
    s.sample_once();  // progress clears the flag
    EXPECT_FALSE(s.stalled());

    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    s.sample_once();  // a fresh freeze is a fresh episode
    EXPECT_EQ(s.stall_episodes(), 2u);
  }
  const TelemetryLog loaded = load_telemetry(log);
  EXPECT_EQ(loaded.stall_records, 2u);
  EXPECT_EQ(loaded.corrupt_lines, 0u);
  std::filesystem::remove(log);
}

/// The acceptance gate: an 8-worker quick campaign with the sampler
/// ticking at 10 ms (and the profiler on) leaves a byte-identical
/// measurement cache — and identical predictions — to a sampler-off run.
TEST(Telemetry, SamplerOnCampaignIsByteIdentical) {
  const std::string off_path = temp_path("cache_off") + ".tsv";
  const std::string on_path = temp_path("cache_on") + ".tsv";
  const std::string log = temp_path("campaign") + ".jsonl";
  std::filesystem::remove(off_path);
  std::filesystem::remove(on_path);
  std::filesystem::remove(log);

  auto reduced_config = [](const std::string& cache_path, int jobs) {
    core::CampaignConfig c;
    c.opts.window = units::ms(8);
    c.opts.warmup = units::ms(2);
    c.cache_path = cache_path;
    c.jobs = jobs;
    c.compression_grid = {
        core::CompressionConfig{1, 2.5e6, 1, units::KiB(40)},
        core::CompressionConfig{4, 2.5e5, 10, units::KiB(40)},
    };
    return c;
  };

  const bool prof_before = profiling_enabled();

  // Reference: serial, profiler off, no sampler.
  set_profiling_enabled(false);
  {
    core::Campaign off(reduced_config(off_path, 1));
    EXPECT_GT(core::ParallelRunner(off).prefetch_all().executed, 0u);
  }

  // Candidate: 8 workers, profiler on, sampler at 10 ms.
  set_profiling_enabled(true);
  {
    TelemetryConfig cfg;
    cfg.interval_ms = 10;
    cfg.out_path = log;
    attach_profile_gauges(default_registry());
    Sampler sampler(cfg);
    sampler.start();
    core::Campaign on(reduced_config(on_path, 8));
    EXPECT_GT(core::ParallelRunner(on).prefetch_all().executed, 0u);
    sampler.stop();
    EXPECT_GT(sampler.samples_taken(), 0u);
  }
  set_profiling_enabled(prof_before);

  // Not one simulated byte may differ.
  const std::string off_bytes = file_bytes(off_path);
  ASSERT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, file_bytes(on_path));

  // The telemetry log is loadable, undamaged, and ends with the
  // collapsed-stack profile record.
  const TelemetryLog loaded = load_telemetry(log);
  EXPECT_GT(loaded.samples.size(), 0u);
  EXPECT_EQ(loaded.corrupt_lines, 0u);
  EXPECT_FALSE(loaded.profile.empty());

  // Predictions (the Fig 8 pipeline) are identical too.
  core::Campaign a(reduced_config(off_path, 1));
  core::Campaign b(reduced_config(on_path, 1));
  const auto& apps = apps::all_apps();
  for (const auto& victim : apps)
    for (const auto& aggressor : apps) {
      const auto pa = a.predict_pair(victim.id, aggressor.id);
      const auto pb = b.predict_pair(victim.id, aggressor.id);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t m = 0; m < pa.size(); ++m) {
        EXPECT_EQ(pa[m].predicted_pct, pb[m].predicted_pct);
        EXPECT_EQ(pa[m].measured_pct, pb[m].measured_pct);
      }
    }

  std::filesystem::remove(off_path);
  std::filesystem::remove(on_path);
  std::filesystem::remove(log);
}

}  // namespace
}  // namespace actnet::obs
