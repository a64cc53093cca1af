// Calibration bench (paper §III-A / §IV-B preliminaries): idle-switch
// probe latency distribution, the M/G/1 parameters (mu from the minimum
// latency, Var(S) from the idle variance), and the resulting utilization
// floor of the Pollaczek–Khinchine inversion.
//
// Paper reference points: idle packet latency ~1.25 us on Cab with a few
// much slower packets; the inversion floor is what makes the lightest
// CompressionB configuration read ~26% in Fig. 6.
#include "bench_common.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kCalibration);
  bench::print_title("Calibration: idle switch (paper §III-A, §IV-B)",
                     campaign);

  const core::Calibration& c = campaign.calibration();
  Table t({"quantity", "value", "paper reference"});
  t.row().add("idle mean latency (us)").add(c.idle.mean_us, 3).add("~1.25 us");
  t.row().add("idle min latency = 1/mu (us)").add(c.service_time_us, 3)
      .add("switch service time");
  t.row().add("idle stddev (us)").add(c.idle.stddev_us, 3).add("-");
  t.row().add("idle max latency (us)").add(c.idle.max_us, 3)
      .add("a few much slower packets");
  t.row().add("Var(S) (us^2)").add(c.var_service_us2, 4).add("-");
  t.row().add("mu (packets/us)").add(c.mg1().mu, 4).add("-");
  t.row().add("probe samples").add(static_cast<long long>(c.idle.count))
      .add("-");
  const double floor = campaign.utilization_of(core::Workload::idle());
  t.row().add("idle utilization floor (%)").add(100.0 * floor, 1)
      .add("~26% (Fig. 6 lower bound)");
  bench::emit(t, "calibration.csv");
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
