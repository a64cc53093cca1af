// Extension bench: the time-varying queue model (TVQueue).
//
// The paper's one large Queue-model error is FFTW co-run with AMG: AMG's
// dense/sparse phase alternation makes its *average* utilization a poor
// description of what a co-runner experiences (§V-B). TVQueue fixes this
// by averaging the victim's degradation curve over the aggressor's
// utilization *time series* (2 ms probe windows) instead of evaluating it
// once at the mean.
//
// This bench reports |measured - predicted| of Queue vs TVQueue for all 36
// pairings and calls out the FFT+AMG cell.
#include <map>

#include "bench_common.h"
#include "core/measure.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kAll);
  bench::print_title(
      "Extension: time-varying queue model vs the paper's queue model",
      campaign);

  // Windowed utilization series per app (not cached: one short run each).
  // 0.5 ms sub-windows: fine enough to resolve AMG's ~1 ms phase
  // alternation, with ~100+ probe samples per window at the dense cadence.
  std::map<int, std::vector<double>> series;
  for (const auto& app : apps::all_apps()) {
    const auto windows = run_impact_series(
        core::Workload::of_app(app.id), campaign.options(), units::us(500));
    series[static_cast<int>(app.id)] =
        estimate_utilization_series(windows, campaign.calibration());
  }

  const core::QueueModel queue;
  const core::TimeVaryingQueueModel tv;
  const auto& table = campaign.compression_table();

  Table t({"victim", "with", "measured_%", "Queue_err", "TVQueue_err",
           "util_mean_%", "util_min_%", "util_max_%"});
  OnlineStats queue_err, tv_err;
  double fft_amg_queue = 0.0, fft_amg_tv = 0.0;
  for (const auto& victim : apps::all_apps()) {
    for (const auto& aggressor : apps::all_apps()) {
      const core::AppProfile& v = campaign.app_profile(victim.id);
      const core::AppProfile& a = campaign.app_profile(aggressor.id);
      const double measured =
          campaign.measured_pair_slowdown_pct(victim.id, aggressor.id);
      const auto& s = series[static_cast<int>(aggressor.id)];
      OnlineStats u;
      for (double x : s) u.add(x);
      const double q_err =
          std::abs(queue.predict(v, a, table) - measured);
      const double tv_pred = tv.predict_series(v, s, table);
      const double t_err = std::abs(tv_pred - measured);
      queue_err.add(q_err);
      tv_err.add(t_err);
      if (victim.id == apps::AppId::kFFT &&
          aggressor.id == apps::AppId::kAMG) {
        fft_amg_queue = q_err;
        fft_amg_tv = t_err;
      }
      t.row()
          .add(victim.name)
          .add(aggressor.name)
          .add(measured, 1)
          .add(q_err, 1)
          .add(t_err, 1)
          .add(100.0 * u.mean(), 1)
          .add(100.0 * u.min(), 1)
          .add(100.0 * u.max(), 1);
    }
  }
  bench::emit(t, "ext_time_varying.csv");

  std::cout << "\nmean |error|: Queue " << format_double(queue_err.mean(), 2)
            << "%  vs  TVQueue " << format_double(tv_err.mean(), 2) << "%\n"
            << "FFT with AMG (the paper's problem case): Queue "
            << format_double(fft_amg_queue, 1) << "%  vs  TVQueue "
            << format_double(fft_amg_tv, 1) << "%\n\n"
            << "expected: TVQueue shrinks the phase-driven FFT+AMG error "
               "(partially — probe windows\nstill overstate utilization "
               "during bursts) while matching Queue on steady aggressors,\n"
               "at the cost of a little sampling noise.\n";
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
