// Fig. 8 reproduction: |measured - predicted| slowdown for each of the 36
// workload pairings under the four models (AverageLT, AverageStDevLT,
// PDFLT, Queue).
//
// Expected shape: the Queue model is the most accurate across the board;
// its one notable error is FFT co-run with AMG, where AMG's phase
// behaviour violates the constant-utilization assumption (paper §V-B).
//
// The pairing sweep itself lives in valid::collect_pair_errors — the same
// records the conformance gate (actnet_validate) checks against the
// paper's error envelopes; this bench is only a formatter over them.
#include "bench_common.h"
#include "valid/conformance.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kAll);
  bench::print_title(
      "Fig. 8: |measured - predicted| slowdown (%) for all 36 pairings",
      campaign);

  const auto records =
      valid::collect_pair_errors(campaign, apps::all_app_ids());

  Table t({"victim", "with", "measured_%", "AverageLT", "AverageStDevLT",
           "PDFLT", "Queue"});
  for (const auto& rec : records) {
    t.row().add(rec.victim).add(rec.aggressor).add(rec.measured_pct, 1);
    for (const auto& p : rec.predictions) t.add(p.abs_error(), 1);
  }
  bench::emit(t, "fig8_prediction_errors.csv");

  // Also surface the per-workload utilizations behind the Queue model.
  std::cout << '\n';
  Table u({"app", "impact_W_us", "utilization_%", "baseline_us_per_iter"});
  for (const auto& app : apps::all_apps()) {
    const auto& profile = campaign.app_profile(app.id);
    u.row()
        .add(app.name)
        .add(profile.impact.mean_us, 3)
        .add(100.0 * profile.utilization, 1)
        .add(profile.baseline_iter_us, 1);
  }
  bench::emit(u, "fig8_app_utilizations.csv");
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
