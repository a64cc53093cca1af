// actnet_validate — the paper-conformance gate.
//
// Runs a seed-swept campaign matrix, evaluates the four predictors and the
// M/G/1 utilization inversion against simulated ground truth, compares the
// results to the checked-in error envelopes (valid/tolerances.json) and
// exits non-zero — with a diff-style report naming the regressed claim —
// when any gate is exceeded.
//
// Usage:
//   actnet_validate [--quick] [--tolerances=PATH] [--out=conformance.json]
//                   [--report=PATH] [--jobs=N] [--seeds=1,2,3]
//                   [--perturb=Model:factor]
//
//   --quick       tier-1 matrix (2 seeds x 3 apps x 3 configs); default is
//                 the full matrix (3 seeds x 6 apps x 8 configs)
//   --tolerances  tolerance file (default $ACTNET_TOLERANCES, else
//                 valid/tolerances.json)
//   --out         versioned conformance.json (default conformance.json;
//                 "-" suppresses the file)
//   --report      obs run-report JSON carrying the conformance block
//   --seeds       override the seed sweep (comma-separated)
//   --perturb     scale one model's predictions (gate self-test)
//
// Exit status: 0 = all gates hold, 1 = conformance failure, 2 = usage or
// I/O error.
#include <fstream>
#include <iostream>

#include "util/cli.h"
#include "util/env.h"
#include "util/error.h"
#include "util/log.h"
#include "util/parse.h"
#include "valid/tolerance.h"

namespace {

using namespace actnet;

std::vector<std::uint64_t> parse_seed_list(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string field =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    const auto seed = util::parse_number<std::uint64_t>(field);
    ACTNET_CHECK_MSG(seed.has_value(), "bad seed '" << field << "'");
    seeds.push_back(*seed);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  log::init_from_env();

  bool quick = false;
  std::string tolerances_path =
      util::env_string("ACTNET_TOLERANCES", "valid/tolerances.json");
  std::string out_path = "conformance.json";
  std::string report_path;
  std::string seeds_arg, perturb_arg, jobs_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (util::take_flag(argc, argv, i, "--tolerances",
                                tolerances_path) ||
               util::take_flag(argc, argv, i, "--out", out_path) ||
               util::take_flag(argc, argv, i, "--report", report_path) ||
               util::take_flag(argc, argv, i, "--seeds", seeds_arg) ||
               util::take_flag(argc, argv, i, "--jobs", jobs_arg) ||
               util::take_flag(argc, argv, i, "--perturb", perturb_arg)) {
    } else {
      std::cerr << "actnet_validate: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  try {
    valid::MatrixSpec spec =
        quick ? valid::quick_matrix() : valid::full_matrix();
    if (!seeds_arg.empty()) spec.seeds = parse_seed_list(seeds_arg);
    if (!jobs_arg.empty()) spec.jobs = util::parse_count("--jobs", jobs_arg);
    const valid::PerturbSpec perturb = valid::PerturbSpec::parse(perturb_arg);
    if (perturb.active())
      std::cout << "[perturbing " << perturb.model << " by x" << perturb.scale
                << " — the gates below are expected to fail]\n";

    const valid::Tolerances tol =
        valid::Tolerances::load(tolerances_path, spec.tier);
    valid::ConformanceReport report =
        valid::run_conformance(spec, perturb);
    const std::vector<valid::GateResult> gates =
        valid::evaluate_gates(report, tol);
    report.run.conformance = valid::summarize_gates(gates, spec.tier);

    valid::print_gate_report(std::cout, gates, report, tolerances_path);
    if (out_path != "-") {
      std::ofstream out(out_path, std::ios::trunc);
      if (!out.good()) {
        std::cerr << "actnet_validate: cannot write " << out_path << "\n";
        return 2;
      }
      valid::write_conformance_json(out, report, gates);
      std::cout << "[conformance record written to " << out_path << "]\n";
    }
    if (!report_path.empty()) {
      std::ofstream out(report_path, std::ios::trunc);
      if (!out.good()) {
        std::cerr << "actnet_validate: cannot write " << report_path << "\n";
        return 2;
      }
      report.run.write_json(out);
      std::cout << "[run report written to " << report_path << "]\n";
    }
    return valid::all_passed(gates) ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "actnet_validate: " << e.what() << "\n";
    return 2;
  }
}
