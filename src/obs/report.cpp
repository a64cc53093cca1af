#include "obs/report.h"

#include <algorithm>
#include <ostream>

#include "util/table.h"

namespace actnet::obs {

namespace {
thread_local JobStats* t_sink = nullptr;
}  // namespace

JobStatsScope::JobStatsScope(JobStats* sink) : prev_(t_sink) { t_sink = sink; }
JobStatsScope::~JobStatsScope() { t_sink = prev_; }

void add_job_stats(std::uint64_t events, Tick sim_time) {
  if (t_sink == nullptr) return;
  t_sink->events += events;
  t_sink->sim_ms += units::to_ms(sim_time);
}

std::uint64_t RunReport::total_events() const {
  std::uint64_t n = 0;
  for (const auto& j : jobs) n += j.events;
  return n;
}

double RunReport::total_job_wall_ms() const {
  double ms = 0.0;
  for (const auto& j : jobs) ms += j.wall_ms;
  return ms;
}

int RunReport::cached_count() const {
  int n = 0;
  for (const auto& j : jobs) n += j.cached ? 1 : 0;
  return n;
}

double RunReport::worker_utilization() const {
  if (workers <= 0 || wall_ms <= 0.0) return 0.0;
  return total_job_wall_ms() / (static_cast<double>(workers) * wall_ms);
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"workers\": " << workers << ",\n";
  os << "  \"wall_ms\": " << wall_ms << ",\n";
  os << "  \"cached\": " << cached_count() << ",\n";
  os << "  \"total_events\": " << total_events() << ",\n";
  os << "  \"worker_utilization\": " << worker_utilization() << ",\n";
  if (conformance.ran) {
    os << "  \"conformance\": {\"tier\": \"" << conformance.tier
       << "\", \"passed\": " << (conformance.passed ? "true" : "false")
       << ", \"checks\": " << conformance.checks
       << ", \"failed\": " << conformance.failed;
    if (!conformance.detail.empty())
      os << ", \"detail\": \"" << conformance.detail << "\"";
    os << "},\n";
  }
  if (!metrics.empty()) {
    os << "  \"metrics\": {";
    bool first_m = true;
    for (const auto& m : metrics) {
      if (!first_m) os << ", ";
      first_m = false;
      os << "\"" << m.name << "\": " << m.value;
    }
    os << "},\n";
  }
  if (!hists.empty()) {
    os << "  \"hists\": {";
    bool first_h = true;
    for (const auto& h : hists) {
      if (!first_h) os << ", ";
      first_h = false;
      os << "\"" << h.name << "\": {\"count\": " << h.count
         << ", \"mean\": " << h.mean << ", \"p50_le\": " << h.p50_le
         << ", \"p90_le\": " << h.p90_le << ", \"p99_le\": " << h.p99_le
         << "}";
    }
    os << "},\n";
  }
  os << "  \"jobs\": [\n";
  bool first = true;
  for (const auto& j : jobs) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"key\": \"" << j.key << "\", \"cached\": "
       << (j.cached ? "true" : "false") << ", \"wall_ms\": " << j.wall_ms
       << ", \"sim_ms\": " << j.sim_ms << ", \"events\": " << j.events
       << ", \"events_per_sec\": " << j.events_per_sec() << "}";
  }
  os << "\n  ]\n}\n";
}

void RunReport::print(std::ostream& os, std::size_t max_rows) const {
  os << "campaign: " << jobs.size() << " jobs (" << cached_count()
     << " cached) in " << wall_ms / 1e3 << " s on " << workers
     << " workers, utilization " << worker_utilization() * 100.0 << " %, "
     << total_events() << " events\n";
  if (conformance.ran) {
    os << "  conformance (" << conformance.tier << "): "
       << (conformance.passed ? "PASS" : "FAIL") << ", "
       << conformance.checks - conformance.failed << "/"
       << conformance.checks << " gates";
    if (!conformance.detail.empty()) os << " — " << conformance.detail;
    os << "\n";
  }
  // The flow-forward health counters, once any network has published.
  for (const char* name : {"net.flowfwd.messages", "net.flowfwd.demotions",
                           "net.flowfwd.fallback_packets"}) {
    for (const auto& m : metrics) {
      if (m.name == name) {
        os << "  " << m.name << ": " << static_cast<long long>(m.value)
           << "\n";
        break;
      }
    }
  }
  // Cache durability counters: only worth a line when something was
  // actually corrupt (a healthy cache stays silent).
  for (const char* name : {"core.cache.corrupt_lines", "core.cache.recovered"}) {
    for (const auto& m : metrics) {
      if (m.name == name && m.value > 0) {
        os << "  " << m.name << ": " << static_cast<long long>(m.value)
           << "\n";
        break;
      }
    }
  }
  if (!hists.empty()) {
    Table ht({"histogram", "count", "mean", "p50<=", "p90<=", "p99<="});
    for (const auto& h : hists) {
      ht.row()
          .add(h.name)
          .add(static_cast<long long>(h.count))
          .add(h.mean, 1)
          .add(static_cast<long long>(h.p50_le))
          .add(static_cast<long long>(h.p90_le))
          .add(static_cast<long long>(h.p99_le));
    }
    ht.print(os);
  }
  std::vector<const JobStats*> slowest;
  slowest.reserve(jobs.size());
  for (const auto& j : jobs)
    if (!j.cached) slowest.push_back(&j);
  std::sort(slowest.begin(), slowest.end(),
            [](const JobStats* a, const JobStats* b) {
              return a->wall_ms > b->wall_ms;
            });
  if (slowest.size() > max_rows) slowest.resize(max_rows);
  if (slowest.empty()) return;
  Table t({"job", "wall ms", "sim ms", "events", "Mev/s"});
  for (const JobStats* j : slowest) {
    t.row()
        .add(j->key)
        .add(j->wall_ms, 1)
        .add(j->sim_ms, 1)
        .add(static_cast<long long>(j->events))
        .add(j->events_per_sec() / 1e6, 2);
  }
  t.print(os);
}

}  // namespace actnet::obs
