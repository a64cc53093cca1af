// Fig. 3 reproduction: distributions of ImpactB packet latencies on an
// idle switch and while each of the six applications runs.
//
// The paper plots frequency (%) against packet transmission time in
// ~1.5 us buckets centred at 1, 2.5, 4, 5.5, 7, 8.5 and 10 us. Expected
// shape: the idle distribution has its mode near 1.25 us; FFTW and MCB
// move ~20% of packets beyond 2.5 us (MCB with a pronounced far tail);
// Lulesh and MILC shift the mode toward 2.5 us.
#include <array>

#include "bench_common.h"

namespace {

// Paper-style buckets: centers 1, 2.5, ..., 10 (width 1.5), final bucket
// open-ended so the far tail is visible.
constexpr std::array<double, 7> kCenters{1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0};

std::array<double, 7> paper_buckets(const actnet::core::LatencySummary& s) {
  std::array<double, 7> out{};
  if (s.count == 0) return out;
  for (std::size_t b = 0; b < s.hist.bins(); ++b) {
    const double x = s.hist.center(b);
    std::size_t bucket = kCenters.size() - 1;
    for (std::size_t i = 0; i < kCenters.size(); ++i) {
      if (x < kCenters[i] + 0.75) {
        bucket = i;
        break;
      }
    }
    out[bucket] += 100.0 * s.hist.mass(b);
  }
  // Overflow (>15 us) belongs to the last open-ended bucket.
  out.back() += 100.0 * static_cast<double>(s.hist.overflow()) /
                static_cast<double>(s.hist.total());
  return out;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kImpacts);
  bench::print_title(
      "Fig. 3: ImpactB packet-latency distributions on Cab-like switch",
      campaign);

  std::vector<std::string> header{"workload", "mean_us", "sd_us"};
  for (double c : kCenters) header.push_back(format_double(c, 1) + "us%");
  Table t(header);

  auto add_row = [&](const std::string& name, const core::Workload& w) {
    const core::LatencySummary& s = campaign.impact_of(w);
    t.row().add(name).add(s.mean_us, 3).add(s.stddev_us, 3);
    for (double pct : paper_buckets(s)) t.add(pct, 1);
  };

  add_row("No App", core::Workload::idle());
  for (const auto& app : apps::all_apps())
    add_row(app.name, core::Workload::of_app(app.id));

  bench::emit(t, "fig3_latency_distributions.csv");
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
