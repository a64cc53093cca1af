// actnet_stat: read (or tail) the per-job stream core::ParallelRunner
// appends beside a campaign run report (`run_report.jobs.jsonl`, see
// obs/report.h).
//
// Usage:
//   actnet_stat [options] <run_report.jobs.jsonl>
//     (default)      summary: one row per prefetch, wall time and events
//                    per phase (the job key's prefix before the first
//                    '/'), the slowest jobs, and the pending keys of every
//                    unfinished prefetch — the jobs a crashed, failed or
//                    stuck campaign never finished
//     --prof         dump the recorded collapsed-stack profile
//                    ("engine;net <self_ns>" lines, flamegraph.pl input)
//     --follow       tail the file: print one line per record as the
//                    producing process appends them
//     --poll-ms=N    --follow poll cadence (default 500)
//
// The loader is the library's corruption-tolerant one: torn or damaged
// lines (a crash mid-append) are counted and skipped, never fatal.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/table.h"

namespace {

using actnet::Table;
using actnet::obs::JobStats;
using actnet::obs::JobStreamLog;
using actnet::obs::PrefetchLog;

std::string phase_of(const std::string& key) {
  return key.substr(0, key.find('/'));
}

void print_summary(const JobStreamLog& log, const std::string& path) {
  std::vector<const JobStats*> jobs;
  std::size_t unfinished = 0;
  for (const PrefetchLog& p : log.prefetches) {
    for (const JobStats& j : p.jobs) jobs.push_back(&j);
    unfinished += p.ended ? 0 : 1;
  }
  std::cout << "job stream: " << path << "\n  prefetches: "
            << log.prefetches.size() << " (" << unfinished
            << " unfinished), finished jobs: " << jobs.size()
            << ", corrupt lines: " << log.corrupt_lines << "\n\n";

  Table pt({"prefetch", "scope", "workers", "cached", "pending", "finished",
            "wall ms", "utilization %"});
  for (std::size_t i = 0; i < log.prefetches.size(); ++i) {
    const PrefetchLog& p = log.prefetches[i];
    pt.row()
        .add(i + 1)
        .add(p.scope.empty() ? "?" : p.scope)
        .add(p.workers)
        .add(p.cached.size())
        .add(p.pending.size())
        .add(p.jobs.size());
    if (p.ended)
      pt.add(p.wall_ms, 1).add(p.worker_utilization * 100.0, 1);
    else
      pt.add("unfinished").add("-");
  }
  pt.print(std::cout);
  if (jobs.empty()) return;

  struct Phase {
    std::size_t jobs = 0;
    double wall_ms = 0.0, sim_ms = 0.0;
    unsigned long long events = 0;
  };
  std::map<std::string, Phase> phases;
  Phase total;
  for (const JobStats* j : jobs) {
    for (Phase* ph : {&phases[phase_of(j->key)], &total}) {
      ++ph->jobs;
      ph->wall_ms += j->wall_ms;
      ph->sim_ms += j->sim_ms;
      ph->events += j->events;
    }
  }
  std::cout << "\n";
  Table ft({"phase", "jobs", "wall ms", "wall %", "sim ms", "events"});
  auto add_phase = [&](const std::string& name, const Phase& ph) {
    ft.row()
        .add(name)
        .add(ph.jobs)
        .add(ph.wall_ms, 2)
        .add(total.wall_ms > 0.0 ? ph.wall_ms / total.wall_ms * 100.0 : 0.0,
             1)
        .add(ph.sim_ms, 2)
        .add(static_cast<long long>(ph.events));
  };
  for (const auto& [name, ph] : phases) add_phase(name, ph);
  add_phase("total", total);
  ft.print(std::cout);

  std::cout << "\nslowest jobs\n";
  actnet::obs::print_slowest_jobs(std::cout, std::move(jobs));

  for (std::size_t i = 0; i < log.prefetches.size(); ++i) {
    const PrefetchLog& p = log.prefetches[i];
    if (p.ended) continue;
    const std::vector<std::string> keys = p.unfinished();
    std::cout << "\nprefetch " << i + 1 << " did not finish: " << keys.size()
              << " of " << p.pending.size() << " pending jobs never finished\n";
    for (const std::string& k : keys) std::cout << "  " << k << "\n";
  }

  if (!log.profile.empty())
    std::cout << "\nprofile: " << log.profile.size()
              << " stacks (--prof dumps them)\n";
}

void print_prof(const JobStreamLog& log) {
  for (const auto& [stack, ns] : log.profile)
    std::cout << stack << " " << ns << "\n";
}

int follow(const std::string& path, int poll_ms) {
  // Poll-and-reparse: the corruption-tolerant loader is the single source
  // of truth for the record format. A mid-append tail line fails its CRC
  // this round and is admitted on the next poll once complete. The file
  // only grows, so the first `jobs_shown` job records and `ends_shown` end
  // records are the ones already printed.
  std::uintmax_t last_size = 0;
  std::size_t jobs_shown = 0, ends_shown = 0;
  std::cout << "following " << path << " (interrupt to stop)\n";
  while (true) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec || size == last_size) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      continue;
    }
    last_size = size;
    std::size_t jobs = 0, ends = 0;
    for (const PrefetchLog& p : actnet::obs::load_job_stream(path).prefetches) {
      for (const JobStats& j : p.jobs)
        if (jobs++ >= jobs_shown)
          std::printf("job %s wall=%.1fms events=%llu\n", j.key.c_str(),
                      j.wall_ms, static_cast<unsigned long long>(j.events));
      if (p.ended && ends++ >= ends_shown)
        std::printf("end %s: %zu jobs, wall=%.1fms utilization=%.1f%%\n",
                    p.scope.c_str(), p.jobs.size(), p.wall_ms,
                    p.worker_utilization * 100.0);
    }
    jobs_shown = jobs;
    ends_shown = ends;
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool want_prof = false, want_follow = false;
  int poll_ms = 500;
  std::string path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (arg == "--prof") {
        want_prof = true;
      } else if (arg == "--follow") {
        want_follow = true;
      } else if (actnet::util::take_flag(argc, argv, i, "--poll-ms", value)) {
        poll_ms = actnet::util::parse_count("--poll-ms", value);
        if (poll_ms == 0) throw actnet::Error("--poll-ms must be positive");
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: actnet_stat [--prof] [--follow] [--poll-ms=N] "
                     "<run_report.jobs.jsonl>\n";
        return 0;
      } else if (!arg.empty() && arg[0] != '-') {
        path = arg;
      } else {
        std::cerr << "actnet_stat: unknown flag " << arg << " (--help)\n";
        return 2;
      }
    }
    if (path.empty()) {
      std::cerr << "actnet_stat: no job stream given (--help)\n";
      return 2;
    }
    if (want_follow) return follow(path, poll_ms);
    const JobStreamLog log = actnet::obs::load_job_stream(path);
    if (want_prof)
      print_prof(log);
    else
      print_summary(log, path);
  } catch (const std::exception& e) {
    std::cerr << "actnet_stat: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
