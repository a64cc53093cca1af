// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench builds a Campaign from the environment (ACTNET_WINDOW_MS,
// ACTNET_FAST, ACTNET_CACHE, ACTNET_LOG, ACTNET_JOBS, ACTNET_TRACE,
// ACTNET_REPORT) and shares one measurement cache, so the expensive
// simulations run once across the whole bench suite. Before formatting,
// each bench prefetches the experiments its figure needs through the
// parallel campaign executor. Command-line flags override the environment:
//   --jobs=N            worker threads (1 = serial)
//   --trace=FILE        Chrome trace_event JSON per experiment (obs/trace.h)
//   --report=FILE       campaign run report JSON plus its per-job stream
//                       (obs/report.h)
// Any other argument is an error. Tables are printed to stdout and
// mirrored as CSV under results/.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/campaign.h"
#include "core/parallel.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/log.h"
#include "util/table.h"

namespace actnet::bench {

using util::take_flag;

/// Flags shared by every bench binary; zero/empty = defer to environment.
/// Parsing is strict: `--jobs=abc`, `--jobs=4x`, a flag missing its value
/// and any unrecognised argument throw actnet::Error naming it.
struct CliOptions {
  int jobs = 0;        ///< --jobs: workers (else ACTNET_JOBS / hw default)
  std::string trace;   ///< --trace: Chrome trace path (else ACTNET_TRACE)
  std::string report;  ///< --report: run-report path (else ACTNET_REPORT)
};

inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  std::string jobs;
  for (int i = 1; i < argc; ++i) {
    if (take_flag(argc, argv, i, "--jobs", jobs))
      cli.jobs = util::parse_count("--jobs", jobs);
    else if (!take_flag(argc, argv, i, "--trace", cli.trace) &&
             !take_flag(argc, argv, i, "--report", cli.report))
      throw Error(std::string("unrecognised argument '") + argv[i] +
                  "' (benches take --jobs=N, --trace=FILE and "
                  "--report=FILE, each with a value)");
  }
  return cli;
}

/// Builds the campaign; recognizes `--jobs` / `--trace` / `--report`.
inline core::Campaign make_campaign(int argc = 0, char** argv = nullptr) {
  log::init_from_env();
  const CliOptions cli = parse_cli(argc, argv);
  core::CampaignConfig config = core::CampaignConfig::from_env();
  if (cli.jobs > 0) config.jobs = cli.jobs;
  if (!cli.trace.empty()) config.opts.cluster.trace_path = cli.trace;
  if (!cli.report.empty()) config.report_path = cli.report;
  return core::Campaign(std::move(config));
}

/// Runs every experiment `scope` needs across the campaign's worker
/// threads; the formatting code below then hits only the cache.
inline void prefetch(core::Campaign& campaign, core::PrefetchScope scope) {
  const core::PrefetchReport r =
      core::ParallelRunner(campaign).prefetch(scope);
  if (r.executed > 0)
    std::cout << "[prefetched " << r.executed << " experiments on " << r.jobs
              << " worker(s); " << r.cached << " cached]\n";
}

inline void print_title(const std::string& title, core::Campaign& campaign) {
  std::cout << "\n=== " << title << " ===\n"
            << "window " << units::to_ms(campaign.options().window)
            << " ms, warmup " << units::to_ms(campaign.options().warmup)
            << " ms, seed " << campaign.options().seed << ", cache "
            << (campaign.db().path().empty() ? "<memory>"
                                             : campaign.db().path())
            << "\n\n";
}

inline void emit(const Table& table, const std::string& csv_name) {
  table.print(std::cout);
  const std::string path = "results/" + csv_name;
  table.save_csv(path);
  std::cout << "\n[saved " << path << "]\n";
}

}  // namespace actnet::bench
