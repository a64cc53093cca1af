// Campaign orchestration: lazy measurement, caching, prediction plumbing.
// Uses very small windows; exercises a reduced slice of the full campaign.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/campaign.h"
#include "core/keys.h"
#include "obs/report.h"
#include "equivalence_harness.h"

namespace actnet::core {
namespace {

CampaignConfig tiny_config(const std::string& cache_path = "") {
  CampaignConfig c;
  c.opts.window = units::ms(8);
  c.opts.warmup = units::ms(2);
  c.cache_path = cache_path;
  return c;
}

TEST(Campaign, CalibrationAndIdleImpact) {
  Campaign c(tiny_config());
  const Calibration& calib = c.calibration();
  EXPECT_GT(calib.service_time_us, 0.9);
  const double idle_rho = c.utilization_of(Workload::idle());
  EXPECT_GT(idle_rho, 0.05);
  EXPECT_LT(idle_rho, 0.40);
}

TEST(Campaign, IdleImpactIsTheCalibrationsSummary) {
  // One idle simulation: once calibrated, the idle impact runs nothing,
  // stores nothing and is the calibration's summary.
  CampaignConfig cfg = tiny_config();
  cfg.report_path = testing::temp_cache("idle_report") + ".json";
  const std::string stream = obs::job_stream_path(cfg.report_path);
  std::filesystem::remove(stream);
  Campaign c(cfg);
  const Calibration& calib = c.calibration();
  const std::size_t entries = c.db().size();
  EXPECT_EQ(c.impact_of(Workload::idle()).serialize(), calib.idle.serialize());
  EXPECT_EQ(c.db().size(), entries);
  EXPECT_FALSE(c.db().get(keys::impact(Workload::idle())).has_value());
  const obs::JobStreamLog log = obs::load_job_stream(stream);
  ASSERT_EQ(log.prefetches.size(), 1u);
  EXPECT_EQ(log.prefetches[0].scope, "calibration");
  EXPECT_EQ(log.prefetches[0].pending,
            std::vector<std::string>{keys::calibration()});
  std::filesystem::remove(cfg.report_path);
  std::filesystem::remove(stream);
}

TEST(Campaign, CompressionMessageSizeIsInItsKeys) {
  // Two grid points that differ only in message size are two experiments;
  // the paper's 40 KiB keeps its old label.
  const CompressionConfig paper{1, 2.5e6, 1, units::KiB(40)};
  CompressionConfig big = paper;
  big.message_bytes = units::KiB(64);
  EXPECT_EQ(big.label(), paper.label() + "_S65536");
  EXPECT_EQ(paper.label().find("_S"), std::string::npos);
  EXPECT_NE(keys::impact(Workload::of_compression(paper)),
            keys::impact(Workload::of_compression(big)));
  EXPECT_NE(keys::degradation(apps::AppId::kMCB, paper),
            keys::degradation(apps::AppId::kMCB, big));

  // A 64 KiB grid opened on a cache the 40 KiB grid wrote measures again.
  const std::string path = testing::temp_cache("campaign_size");
  std::filesystem::remove(path);
  CampaignConfig cfg = tiny_config(path);
  cfg.compression_grid = {paper};
  std::string paper_value;
  {
    Campaign c(cfg);
    c.compression_table();
    paper_value = *c.db().get(keys::impact(Workload::of_compression(paper)));
  }
  cfg.compression_grid = {big};
  Campaign c(cfg);
  const std::size_t entries = c.db().size();
  const LatencySummary& measured = c.compression_table().front().impact;
  EXPECT_EQ(c.db().size(), entries + 1);
  EXPECT_EQ(*c.db().get(keys::impact(Workload::of_compression(big))),
            measured.serialize());
  EXPECT_NE(measured.serialize(), paper_value);
  std::filesystem::remove(path);
}

TEST(Campaign, ImpactMemoizesByLabel) {
  Campaign c(tiny_config());
  const LatencySummary& a = c.impact_of(Workload::of_app(apps::AppId::kMCB));
  const LatencySummary& b = c.impact_of(Workload::of_app(apps::AppId::kMCB));
  EXPECT_EQ(&a, &b);  // same object: measured once
}

TEST(Campaign, CacheFileReusedAcrossInstances) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("actnet_campaign_test_" + std::to_string(::getpid()) + ".tsv"))
          .string();
  std::filesystem::remove(path);
  double first = 0.0;
  {
    Campaign c(tiny_config(path));
    first = c.baseline_us(apps::AppId::kMILC);
  }
  {
    // Second campaign must reproduce the identical number from cache (any
    // re-measurement with the same seed would too, but the cache also
    // makes it instant — verified by the entry count).
    Campaign c(tiny_config(path));
    EXPECT_DOUBLE_EQ(c.baseline_us(apps::AppId::kMILC), first);
    EXPECT_GE(c.db().size(), 2u);
  }
  std::filesystem::remove(path);
}

TEST(Campaign, NetworkConfigChangeInvalidatesCache) {
  // The fingerprint must cover the full network configuration: serving
  // cache lines measured on a different fabric would silently corrupt
  // every downstream figure. (Regression: it used to hash only
  // window/warmup/seed/nodes, so e.g. an MTU change kept stale entries.)
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("actnet_campaign_fp_test_" + std::to_string(::getpid()) + ".tsv"))
          .string();
  std::filesystem::remove(path);
  {
    Campaign c(tiny_config(path));
    c.calibration();
    EXPECT_GE(c.db().size(), 2u);  // fingerprint + calibration
  }
  {
    // Unchanged config: the cache survives.
    Campaign c(tiny_config(path));
    EXPECT_GE(c.db().size(), 2u);
  }
  {
    CampaignConfig cfg = tiny_config(path);
    cfg.opts.cluster.network.mtu = 2048;
    Campaign c(cfg);
    EXPECT_EQ(c.db().size(), 1u);  // cleared; only the new fingerprint
  }
  {
    // The mtu=2048 campaign left nothing cached, so repopulate quickly by
    // binding the default fingerprint again, then check topology knobs.
    Campaign c(tiny_config(path));
    c.db().put("probe", "1");
  }
  {
    CampaignConfig cfg = tiny_config(path);
    cfg.opts.cluster.network.pods = 3;
    cfg.opts.cluster.network.spines = 2;
    Campaign c(cfg);
    EXPECT_EQ(c.db().get("probe"), std::nullopt);
    EXPECT_EQ(c.db().size(), 1u);
  }
  // Caches written under earlier schemas carry the same config under an
  // old version tag; each must miss rather than mix with current
  // measurements: v7 (flow-forward demotions that ordered same-tick events
  // differently from the per-packet path), v6 (a `#`-framed calibration
  // record beside an `impact/idle` one), v5 (jitter drawn per packet
  // through log and exp, other draws of the same distribution), v4
  // (hop-per-event packet chain, a different same-tick order) and v3
  // (sequential switch-stage draws).
  for (const char* old_version :
       {"actnet-v7", "actnet-v6", "actnet-v5", "actnet-v4", "actnet-v3"}) {
    std::string old_fingerprint = Campaign(tiny_config()).fingerprint();
    ASSERT_EQ(old_fingerprint.rfind("actnet-v8|", 0), 0u);
    old_fingerprint.replace(0, 9, old_version);
    {
      MeasurementDb db(path);
      db.bind_fingerprint(old_fingerprint);
      db.put("probe", "1");
    }
    Campaign c(tiny_config(path));
    EXPECT_EQ(c.db().get("probe"), std::nullopt) << old_version;
    EXPECT_EQ(c.db().size(), 1u) << old_version;
  }
  std::filesystem::remove(path);
}

TEST(Campaign, UndecodableCachedValueIsMeasuredAgain) {
  // A calibration record decodes only as an idle summary that can
  // calibrate: a parse failure, no samples, or a zero minimum (mg1()
  // divides by it) is invalidated and measured again.
  LatencySummary no_samples;
  LatencySummary zero_min;
  zero_min.count = 100;
  zero_min.mean_us = 1.5;
  zero_min.stddev_us = 0.2;
  zero_min.max_us = 3.0;
  for (const std::string& bad :
       {std::string("not#a#calibration"), no_samples.serialize(),
        zero_min.serialize()}) {
    Campaign c(tiny_config());
    c.db().put(keys::calibration(), bad);
    const std::size_t corrupt_before = c.db().corrupt_lines();
    EXPECT_GT(c.calibration().service_time_us, 0.9) << bad;
    EXPECT_EQ(c.db().corrupt_lines(), corrupt_before + 1) << bad;
    EXPECT_EQ(*c.db().get(keys::calibration()),
              c.calibration().idle.serialize());
  }
}

TEST(Campaign, FingerprintCoversFatTreeTopologyKnobs) {
  // Regression: the k-ary builder parameters (k, trunk_propagation) and
  // the partition layout they imply were added to NetworkConfig after the
  // fingerprint schema froze, so for a while two different fabrics hashed
  // identically and a cache measured on one was served against the other.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("actnet_campaign_fp_topo_" + std::to_string(::getpid()) + ".tsv"))
          .string();
  std::filesystem::remove(path);
  {
    Campaign c(tiny_config(path));
    c.db().put("probe", "1");
  }
  {
    CampaignConfig cfg = tiny_config(path);
    cfg.opts.cluster.network.k = 4;
    Campaign c(cfg);
    EXPECT_EQ(c.db().get("probe"), std::nullopt);
    EXPECT_EQ(c.db().size(), 1u);  // cleared; only the new fingerprint
    c.db().put("probe", "1");
  }
  {
    // Same k, different trunk flight time: still a different fabric.
    CampaignConfig cfg = tiny_config(path);
    cfg.opts.cluster.network.k = 4;
    cfg.opts.cluster.network.trunk_propagation = units::ns(750);
    Campaign c(cfg);
    EXPECT_EQ(c.db().get("probe"), std::nullopt);
    EXPECT_EQ(c.db().size(), 1u);
  }
  std::filesystem::remove(path);
}

TEST(Campaign, PairSlowdownsUseSingleRunPerUnorderedPair) {
  Campaign c(tiny_config());
  const double ab = c.measured_pair_slowdown_pct(apps::AppId::kMCB,
                                                 apps::AppId::kLulesh);
  const double ba = c.measured_pair_slowdown_pct(apps::AppId::kLulesh,
                                                 apps::AppId::kMCB);
  EXPECT_GE(ab, 0.0);
  EXPECT_GE(ba, 0.0);
  // Both directions resolved from one cached pair run: the underlying
  // db/memo has exactly one pair entry for {MCB, Lulesh}.
}

TEST(Campaign, SelfPairAveragesCopies) {
  Campaign c(tiny_config());
  const double self = c.measured_pair_slowdown_pct(apps::AppId::kMCB,
                                                   apps::AppId::kMCB);
  EXPECT_GE(self, 0.0);
  EXPECT_LT(self, 30.0);
}

TEST(Campaign, FingerprintIncludesWindowAndSeed) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("actnet_campaign_fp_" + std::to_string(::getpid()) + ".tsv"))
          .string();
  std::filesystem::remove(path);
  {
    Campaign c(tiny_config(path));
    c.baseline_us(apps::AppId::kMCB);
  }
  CampaignConfig changed = tiny_config(path);
  changed.opts.seed = 777;
  Campaign c2(changed);
  // Cache invalidated: only the new fingerprint remains.
  EXPECT_EQ(c2.db().size(), 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace actnet::core
