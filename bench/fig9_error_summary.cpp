// Fig. 9 reproduction: box-plot summary (quartiles of |measured -
// predicted| over the 36 pairings) for each of the four models.
//
// Expected shape: AverageStDevLT ~= PDFLT, both better than AverageLT;
// the Queue model clearly best, with >75% of its predictions under 10%
// absolute error and all but one under 20%.
//
// The error collection is shared with Fig. 8 and the conformance gate
// (valid::collect_pair_errors / valid::errors_by_model); this bench adds
// the quartile formatting.
#include "bench_common.h"
#include "valid/conformance.h"

static int bench_main(int argc, char** argv) {
  using namespace actnet;
  auto campaign = bench::make_campaign(argc, argv);
  bench::prefetch(campaign, core::PrefetchScope::kAll);
  bench::print_title(
      "Fig. 9: prediction-error summary over the 36 workloads", campaign);

  const auto by_model = valid::errors_by_model(
      valid::collect_pair_errors(campaign, apps::all_app_ids()));

  Table t({"model", "min", "q1", "median", "q3", "max", "mean",
           "under_10%_of_36", "under_20%_of_36"});
  for (const auto& [model, e] : by_model) {
    const BoxSummary b = box_summary(e);
    int under10 = 0, under20 = 0;
    for (double v : e) {
      if (v < 10.0) ++under10;
      if (v < 20.0) ++under20;
    }
    t.row()
        .add(model)
        .add(b.min, 1)
        .add(b.q1, 1)
        .add(b.median, 1)
        .add(b.q3, 1)
        .add(b.max, 1)
        .add(b.mean, 1)
        .add(static_cast<long long>(under10))
        .add(static_cast<long long>(under20));
  }
  bench::emit(t, "fig9_error_summary.csv");

  std::cout << "\npaper reference: Queue model — >75% of predictions under "
               "10% error, all but one under 20%;\n"
               "AverageStDevLT ~ PDFLT, both better than AverageLT.\n";
  return 0;
}

int main(int argc, char** argv) {
  return actnet::bench::run([&] { return bench_main(argc, argv); });
}
