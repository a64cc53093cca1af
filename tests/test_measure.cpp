// Measurement drivers: calibration, the utilization estimator, degradation
// and pair experiments (fast windows).
#include <gtest/gtest.h>

#include "core/measure.h"

namespace actnet::core {
namespace {

MeasureOptions fast_opts() {
  MeasureOptions o;
  o.window = units::ms(8);
  o.warmup = units::ms(2);
  return o;
}

TEST(Calibrate, IdleSwitchParameters) {
  const Calibration c = calibrate(fast_opts());
  // Minimum idle latency ~1.0-1.3 us; mean slightly above it.
  EXPECT_GT(c.service_time_us, 0.9);
  EXPECT_LT(c.service_time_us, 1.4);
  EXPECT_GT(c.idle.mean_us, c.service_time_us);
  EXPECT_GT(c.var_service_us2, 0.0);
  EXPECT_GT(c.mg1().mu, 0.6);
  EXPECT_LT(c.mg1().mu, 1.2);
}

TEST(Calibrate, DerivesFromTheIdleSummaryAlone) {
  // The cached record is the idle summary; decoding it must rebuild the
  // calibration exactly, or cached and fresh predictions would differ.
  const Calibration c = calibrate(fast_opts());
  const std::optional<Calibration> r =
      Calibration::of(LatencySummary::deserialize(c.idle.serialize()));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->service_time_us, c.service_time_us);
  EXPECT_EQ(r->var_service_us2, c.var_service_us2);
  EXPECT_EQ(r->idle.serialize(), c.idle.serialize());
  // A summary that cannot calibrate: no samples, or a minimum mg1()
  // cannot divide by.
  EXPECT_FALSE(Calibration::of(LatencySummary{}).has_value());
  LatencySummary zero_min = c.idle;
  zero_min.min_us = 0.0;
  EXPECT_FALSE(Calibration::of(zero_min).has_value());
}

TEST(EstimateUtilization, IdleWorkloadGivesTheFloor) {
  const MeasureOptions opts = fast_opts();
  const Calibration c = calibrate(opts);
  const double rho = estimate_utilization(c.idle, c);
  // The paper's ~26% floor: idle jitter alone implies some utilization.
  EXPECT_GT(rho, 0.10);
  EXPECT_LT(rho, 0.40);
}

TEST(EstimateUtilization, MonotoneInMeanLatency) {
  const Calibration c = calibrate(fast_opts());
  LatencySummary s = c.idle;
  double prev = 0.0;
  for (double w = 1.2; w < 10.0; w += 0.4) {
    s.mean_us = w;
    const double rho = estimate_utilization(s, c);
    EXPECT_GE(rho, prev);
    prev = rho;
  }
  EXPECT_GT(prev, 0.9);  // large W saturates toward the clamp
}

TEST(RunImpact, CompressionRaisesLatencyAndUtilization) {
  const MeasureOptions opts = fast_opts();
  const Calibration c = calibrate(opts);
  CompressionConfig heavy;
  heavy.partners = 14;
  heavy.sleep_cycles = 2.5e4;
  heavy.messages = 1;
  const LatencySummary loaded =
      run_impact_experiment(Workload::of_compression(heavy), opts);
  EXPECT_GT(loaded.mean_us, c.idle.mean_us * 1.5);
  EXPECT_GT(estimate_utilization(loaded, c),
            estimate_utilization(c.idle, c) + 0.2);
}

TEST(Slowdown, PercentFormulaAndFloor) {
  EXPECT_DOUBLE_EQ(slowdown_pct(150.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(slowdown_pct(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(slowdown_pct(95.0, 100.0), 0.0);  // floored
  EXPECT_THROW(slowdown_pct(1.0, 0.0), Error);
}

TEST(MeasureApp, CompressionInterferenceSlowsFft) {
  const MeasureOptions opts = fast_opts();
  const double base = measure_app_alone_us(apps::AppId::kFFT, opts);
  CompressionConfig heavy;
  heavy.partners = 17;
  heavy.sleep_cycles = 2.5e4;
  heavy.messages = 1;
  const double with =
      measure_app_vs_compression_us(apps::AppId::kFFT, heavy, opts);
  EXPECT_GT(slowdown_pct(with, base), 40.0);
}

TEST(MeasureApp, LightCompressionBarelySlowsMcb) {
  const MeasureOptions opts = fast_opts();
  const double base = measure_app_alone_us(apps::AppId::kMCB, opts);
  CompressionConfig light;
  light.partners = 1;
  light.sleep_cycles = 2.5e7;
  light.messages = 1;
  const double with =
      measure_app_vs_compression_us(apps::AppId::kMCB, light, opts);
  EXPECT_LT(slowdown_pct(with, base), 5.0);
}

TEST(MeasurePair, BothSidesMeasuredAndSelfPairSymmetricIsh) {
  const MeasureOptions opts = fast_opts();
  const PairTimes t =
      measure_pair_us(apps::AppId::kMILC, apps::AppId::kMILC, opts);
  EXPECT_GT(t.first_us, 0.0);
  EXPECT_GT(t.second_us, 0.0);
  // Two copies of the same app see similar iteration times.
  EXPECT_NEAR(t.first_us / t.second_us, 1.0, 0.25);
}

TEST(MeasurePair, FftSuffersMoreFromFftThanFromMcb) {
  const MeasureOptions opts = fast_opts();
  const double base = measure_app_alone_us(apps::AppId::kFFT, opts);
  const PairTimes vs_fft =
      measure_pair_us(apps::AppId::kFFT, apps::AppId::kFFT, opts);
  const PairTimes vs_mcb =
      measure_pair_us(apps::AppId::kFFT, apps::AppId::kMCB, opts);
  EXPECT_GT(slowdown_pct(vs_fft.first_us, base),
            slowdown_pct(vs_mcb.first_us, base));
}

TEST(Workload, Labels) {
  EXPECT_EQ(Workload::idle().label(), "idle");
  EXPECT_EQ(Workload::of_app(apps::AppId::kAMG).label(), "AMG");
  CompressionConfig c;
  EXPECT_EQ(Workload::of_compression(c).label(), "comp_" + c.label());
}

TEST(MeasureOptions, EnvOverrides) {
  setenv("ACTNET_FAST", "1", 1);
  const MeasureOptions fast = MeasureOptions::from_env();
  EXPECT_EQ(fast.window, units::ms(10));
  unsetenv("ACTNET_FAST");
  setenv("ACTNET_WINDOW_MS", "25", 1);
  const MeasureOptions w = MeasureOptions::from_env();
  EXPECT_EQ(w.window, units::ms(25));
  EXPECT_EQ(w.warmup, units::ms(5));
  unsetenv("ACTNET_WINDOW_MS");
}

}  // namespace
}  // namespace actnet::core
