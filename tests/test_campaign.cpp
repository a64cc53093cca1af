// Campaign orchestration: lazy measurement, caching, prediction plumbing.
// Uses very small windows; exercises a reduced slice of the full campaign.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/campaign.h"
#include "core/keys.h"
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
  // measurements: v5 (jitter drawn per packet through log and exp, other
  // draws of the same distribution), v4 (hop-per-event packet chain, a
  // different same-tick order) and v3 (sequential switch-stage draws).
  for (const char* old_version : {"actnet-v5", "actnet-v4", "actnet-v3"}) {
    std::string old_fingerprint = Campaign(tiny_config()).fingerprint();
    ASSERT_EQ(old_fingerprint.rfind("actnet-v6|", 0), 0u);
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

TEST(Campaign, FlowForwardRegimeIsFingerprinted) {
  // Turning the regime off moves the campaign's measurements, so a cache
  // written in one regime must not be served to the other. "|ffwd=0" is
  // appended only when off, so default fingerprints keep their bytes.
  const std::string path = testing::temp_cache("campaign_fp_ffwd");
  std::filesystem::remove(path);
  testing::ScopedEnv unset("ACTNET_FLOWFWD", "");  // empty = the default
  const std::string on = Campaign(tiny_config()).fingerprint();
  EXPECT_EQ(on.find("ffwd"), std::string::npos) << on;
  CampaignConfig off_cfg = tiny_config(path);
  off_cfg.opts.cluster.flow_forward = false;
  EXPECT_EQ(Campaign(off_cfg).fingerprint(), on + "|ffwd=0");
  CampaignConfig on_cfg = tiny_config();
  on_cfg.opts.cluster.flow_forward = true;
  EXPECT_EQ(Campaign(on_cfg).fingerprint(), on);
  {
    // The config wins over ACTNET_FLOWFWD, which wins over the default.
    testing::ScopedEnv env("ACTNET_FLOWFWD", "off");
    EXPECT_EQ(Campaign(tiny_config()).fingerprint(), on + "|ffwd=0");
    EXPECT_EQ(Campaign(on_cfg).fingerprint(), on);
  }
  {
    Campaign c(off_cfg);
    c.db().put("probe", "1");
  }
  {
    Campaign c(tiny_config(path));  // default regime: the off cache misses
    EXPECT_EQ(c.db().get("probe"), std::nullopt);
    EXPECT_EQ(c.db().size(), 1u);
    c.db().put("probe", "1");
  }
  {
    testing::ScopedEnv env("ACTNET_FLOWFWD", "0");  // and the reverse
    Campaign c(tiny_config(path));
    EXPECT_EQ(c.db().get("probe"), std::nullopt);
  }
  std::filesystem::remove(path);
}

TEST(Campaign, UndecodableCachedValueIsMeasuredAgain) {
  Campaign c(tiny_config());
  c.db().put(keys::calibration(), "not#a#calibration");
  const std::size_t corrupt_before = c.db().corrupt_lines();
  EXPECT_GT(c.calibration().service_time_us, 0.9);
  EXPECT_EQ(c.db().corrupt_lines(), corrupt_before + 1);  // invalidated
  EXPECT_TRUE(Calibration::try_deserialize(*c.db().get(keys::calibration()))
                  .has_value());
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
