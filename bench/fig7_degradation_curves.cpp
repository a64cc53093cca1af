// Fig. 7 reproduction: percentage performance degradation of each
// application as a function of the switch utilization consumed by
// CompressionB, across all 40 configurations, with the per-application
// linear trend fits the paper overlays.
//
// Expected shape: FFT worst (>50% degradation by ~40% utilization,
// ~250% near the top), VPFFT comparable but noisy, MILC ~20% -> ~100%,
// Lulesh ~8-15%, MCB and AMG at most a few percent throughout.
#include "bench_common.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kAppProfiles);
  bench::print_title(
      "Fig. 7: application degradation vs switch utilization (CompressionB)",
      campaign);

  const auto& comp = campaign.compression_table();

  std::vector<std::string> header{"config", "util_%"};
  for (const auto& app : apps::all_apps()) header.push_back(app.name + "_%");
  Table t(header);
  for (std::size_t i = 0; i < comp.size(); ++i) {
    t.row().add(comp[i].config.label()).add(100.0 * comp[i].utilization, 1);
    for (const auto& app : apps::all_apps())
      t.add(campaign.app_profile(app.id).degradation_pct[i], 1);
  }
  bench::emit(t, "fig7_degradation_curves.csv");

  // The paper's linear trend fits.
  std::cout << '\n';
  Table fits({"app", "slope_%_per_util%", "intercept_%", "r2",
              "deg_at_40%util", "deg_at_90%util"});
  std::vector<double> xs;
  for (const auto& p : comp) xs.push_back(100.0 * p.utilization);
  for (const auto& app : apps::all_apps()) {
    const auto& profile = campaign.app_profile(app.id);
    const LinearFit f = linear_fit(xs, profile.degradation_pct);
    fits.row()
        .add(app.name)
        .add(f.slope, 2)
        .add(f.intercept, 1)
        .add(f.r2, 2)
        .add(f.slope * 40.0 + f.intercept, 1)
        .add(f.slope * 90.0 + f.intercept, 1);
  }
  bench::emit(fits, "fig7_linear_fits.csv");
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
