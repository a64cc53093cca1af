#include "obs/report.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "util/error.h"
#include "util/fsio.h"
#include "util/json.h"
#include "util/log.h"
#include "util/table.h"

namespace actnet::obs {

namespace {
thread_local JobStats* t_sink = nullptr;

/// Shortest text that reads back as the same double.
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, r.ptr - buf);
}

void write_keys(std::ostream& os, const std::vector<std::string>& keys) {
  os << '[';
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) os << ", ";
    util::write_json_string(os, keys[i]);
  }
  os << ']';
}

std::vector<std::string> read_keys(const util::JsonValue& doc,
                                   const std::string& field) {
  std::vector<std::string> keys;
  if (const util::JsonValue* arr = doc.find(field))
    for (const util::JsonValue& k : arr->as_array())
      keys.push_back(k.as_string());
  return keys;
}

/// Folds one CRC-valid record into `log`; throws actnet::Error when the
/// payload is not a stream record object (the caller counts it as corrupt).
void read_record(const util::JsonValue& doc, JobStreamLog& log) {
  // Job and end records belong to the open prefetch; when its begin
  // record was lost they open an anonymous one.
  auto open_prefetch = [&log]() -> PrefetchLog& {
    if (log.prefetches.empty() || log.prefetches.back().ended)
      log.prefetches.emplace_back();
    return log.prefetches.back();
  };
  if (const util::JsonValue* scope = doc.find("begin")) {
    PrefetchLog p;
    p.scope = scope->as_string();
    p.workers = static_cast<int>(doc.number_or("workers", 0));
    p.cached = read_keys(doc, "cached");
    p.pending = read_keys(doc, "pending");
    log.prefetches.push_back(std::move(p));
  } else if (const util::JsonValue* key = doc.find("job")) {
    JobStats j;
    j.key = key->as_string();
    j.wall_ms = doc.number_or("wall_ms", 0.0);
    j.sim_ms = doc.number_or("sim_ms", 0.0);
    j.events = static_cast<std::uint64_t>(doc.number_or("events", 0));
    open_prefetch().jobs.push_back(std::move(j));
  } else if (doc.has("end")) {
    std::vector<std::pair<std::string, std::uint64_t>> profile;
    if (const util::JsonValue* prof = doc.find("profile"))
      for (const auto& [stack, ns] : prof->as_object())
        profile.emplace_back(stack, static_cast<std::uint64_t>(ns.as_number()));
    const double wall_ms = doc.number_or("wall_ms", 0.0);
    const double utilization = doc.number_or("worker_utilization", 0.0);
    PrefetchLog& p = open_prefetch();
    p.ended = true;
    p.wall_ms = wall_ms;
    p.worker_utilization = utilization;
    if (!profile.empty()) log.profile = std::move(profile);
  } else {
    throw Error("not a job-stream record");
  }
}
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
  std::vector<const JobStats*> executed;
  executed.reserve(jobs.size());
  for (const auto& j : jobs)
    if (!j.cached) executed.push_back(&j);
  print_slowest_jobs(os, std::move(executed), max_rows);
}

void print_slowest_jobs(std::ostream& os, std::vector<const JobStats*> jobs,
                        std::size_t max_rows) {
  std::sort(jobs.begin(), jobs.end(), [](const JobStats* a, const JobStats* b) {
    return a->wall_ms > b->wall_ms;
  });
  if (jobs.size() > max_rows) jobs.resize(max_rows);
  if (jobs.empty()) return;
  Table t({"job", "wall ms", "sim ms", "events", "Mev/s"});
  for (const JobStats* j : jobs) {
    t.row()
        .add(j->key)
        .add(j->wall_ms, 2)
        .add(j->sim_ms, 2)
        .add(static_cast<long long>(j->events))
        .add(j->events_per_sec() / 1e6, 2);
  }
  t.print(os);
}

std::string job_stream_path(const std::string& report_path) {
  std::filesystem::path p(report_path);
  p.replace_extension(".jobs.jsonl");
  return p.string();
}

JobStreamWriter::JobStreamWriter(std::string path) : path_(std::move(path)) {
  const std::string dir_err = util::ensure_parent_dir(path_);
  if (!dir_err.empty()) {
    ACTNET_WARN("job stream: " << dir_err << "; not recording");
    return;
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) ACTNET_WARN("job stream: cannot open " << path_
                                                     << "; not recording");
}

JobStreamWriter::~JobStreamWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JobStreamWriter::append(std::string line) {
  util::seal_crc_line(line);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  // One write() per whole line (O_APPEND): a crash tears at most this one.
  if (!util::write_all(fd_, line.data(), line.size())) {
    ACTNET_WARN("job stream: write to " << path_ << " failed; not recording");
    ::close(fd_);
    fd_ = -1;
  }
}

void JobStreamWriter::begin(const std::string& scope, int workers,
                            const std::vector<std::string>& cached,
                            const std::vector<std::string>& pending) {
  std::ostringstream os;
  os << "{\"begin\": ";
  util::write_json_string(os, scope);
  os << ", \"workers\": " << workers << ", \"cached\": ";
  write_keys(os, cached);
  os << ", \"pending\": ";
  write_keys(os, pending);
  os << '}';
  append(os.str());
}

void JobStreamWriter::job(const JobStats& stats) {
  std::ostringstream os;
  os << "{\"job\": ";
  util::write_json_string(os, stats.key);
  os << ", \"wall_ms\": ";
  write_number(os, stats.wall_ms);
  os << ", \"sim_ms\": ";
  write_number(os, stats.sim_ms);
  os << ", \"events\": " << stats.events << '}';
  append(os.str());
}

void JobStreamWriter::end(double wall_ms, double worker_utilization,
                          const std::vector<ProfEntry>& profile) {
  std::ostringstream os;
  os << "{\"end\": true, \"wall_ms\": ";
  write_number(os, wall_ms);
  os << ", \"worker_utilization\": ";
  write_number(os, worker_utilization);
  if (!profile.empty()) {
    os << ", \"profile\": {";
    for (std::size_t i = 0; i < profile.size(); ++i) {
      if (i > 0) os << ", ";
      util::write_json_string(os, profile[i].stack);
      os << ": " << profile[i].self_ns;
    }
    os << '}';
  }
  os << '}';
  append(os.str());
}

std::vector<std::string> PrefetchLog::unfinished() const {
  std::set<std::string> done;
  for (const JobStats& j : jobs) done.insert(j.key);
  std::vector<std::string> out;
  for (const std::string& k : pending)
    if (done.count(k) == 0) out.push_back(k);
  return out;
}

JobStreamLog load_job_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ACTNET_CHECK_MSG(in.good(), "cannot open job stream " << path);
  JobStreamLog log;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Validate before parsing: a torn tail fails its CRC and is counted.
    try {
      std::string_view payload;
      if (!util::open_crc_line(line, payload)) throw Error("bad CRC");
      read_record(util::JsonValue::parse(std::string(payload)), log);
    } catch (const Error&) {
      ++log.corrupt_lines;
    }
  }
  return log;
}

}  // namespace actnet::obs
