// Table I reproduction: measured % slowdowns of all 36 ordered
// application pairs sharing one switch. Row = the application whose
// slowdown is reported; column = the co-running application.
//
// Expected shape: FFT with FFT is by far the largest entry (paper: 45%);
// MILC with FFT large (25%); the Lulesh, MCB and AMG rows stay small
// (<= ~7%).
#include "bench_common.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kPairs);
  bench::print_title(
      "Table I: measured slowdowns (%) of co-running application pairs",
      campaign);

  std::vector<std::string> header{"victim \\ with"};
  for (const auto& app : apps::all_apps()) header.push_back(app.name);
  Table t(header);
  for (const auto& victim : apps::all_apps()) {
    t.row().add(victim.name);
    for (const auto& aggressor : apps::all_apps())
      t.add(campaign.measured_pair_slowdown_pct(victim.id, aggressor.id), 1);
  }
  bench::emit(t, "table1_pair_slowdowns.csv");
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
