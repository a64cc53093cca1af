// Fig. 6 reproduction: switch queue utilization of every CompressionB
// configuration (P in {1,4,7,14,17}, B in {2.5e4..2.5e7} cycles,
// M in {1,10}), measured by co-running CompressionB with ImpactB and
// inverting the mean probe latency through the M/G/1 model.
//
// Expected shape: utilization falls with the sleep B (dominant axis) and
// rises with partner count P and message count M; the 40 configurations
// cover roughly 26%..92% of switch queue capacity.
#include <algorithm>

#include "bench_common.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kCompressionTable);
  bench::print_title("Fig. 6: switch utilization of CompressionB on Cab-like",
                     campaign);

  Table t({"messages", "bubble_cycles", "partners", "probe_W_us",
           "utilization_%"});
  const auto& table = campaign.compression_table();
  double lo = 1.0, hi = 0.0;
  for (const auto& p : table) {
    t.row()
        .add(static_cast<long long>(p.config.messages))
        .add(p.config.sleep_cycles, 0)
        .add(static_cast<long long>(p.config.partners))
        .add(p.impact.mean_us, 3)
        .add(100.0 * p.utilization, 1);
    lo = std::min(lo, p.utilization);
    hi = std::max(hi, p.utilization);
  }
  bench::emit(t, "fig6_compression_utilization.csv");

  std::cout << "\nutilization range: " << format_double(100.0 * lo, 1)
            << "% .. " << format_double(100.0 * hi, 1)
            << "%   (paper: 26% .. 92%)\n";
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
