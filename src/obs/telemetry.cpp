#include "obs/telemetry.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "obs/profile.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/json.h"
#include "util/log.h"

namespace actnet::obs {

namespace {

/// The counter the stall watchdog tracks: simulated progress itself.
constexpr const char* kEventsCounter = "sim.engine.events_executed";

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

/// Doubles with enough digits to round-trip (counters are exact integers
/// far below 2^53, gauges are measurements).
void write_number(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -9.2e18 && v < 9.2e18) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ::ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

std::string prom_name(const std::string& name) {
  std::string out = "actnet_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

TelemetryConfig TelemetryConfig::from_env() {
  TelemetryConfig cfg;
  cfg.interval_ms = util::env_int("ACTNET_TELEMETRY", 0);
  cfg.out_path = util::env_string("ACTNET_TELEMETRY_OUT", "telemetry.jsonl");
  cfg.prom_path = util::env_string("ACTNET_TELEMETRY_PROM");
  cfg.keep = static_cast<std::size_t>(util::env_int("ACTNET_TELEMETRY_KEEP",
                                                    256));
  cfg.stall_ms = util::env_int("ACTNET_TELEMETRY_STALL_MS", 5000);
  return cfg;
}

std::vector<MetricRate> compute_rates(const TelemetrySample& prev,
                                      const TelemetrySample& cur) {
  const double dt_s = (cur.t_ms - prev.t_ms) / 1e3;
  std::vector<MetricRate> out;
  out.reserve(cur.metrics.size());
  // Both sides are snapshot() output: sorted by name. Walk them together.
  std::size_t pi = 0;
  for (const Registry::Sample& c : cur.metrics) {
    while (pi < prev.metrics.size() && prev.metrics[pi].name < c.name) ++pi;
    const Registry::Sample* p =
        (pi < prev.metrics.size() && prev.metrics[pi].name == c.name)
            ? &prev.metrics[pi]
            : nullptr;
    MetricRate r;
    r.name = c.name;
    r.kind = c.kind;
    if (c.kind == 'h') {
      r.value = static_cast<double>(c.count);
      r.delta = static_cast<double>(c.count) -
                (p != nullptr ? static_cast<double>(p->count) : 0.0);
    } else {
      r.value = c.value;
      r.delta = c.value - (p != nullptr ? p->value : 0.0);
    }
    r.rate_per_sec = dt_s > 0.0 ? r.delta / dt_s : 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

std::string format_sample_json(const TelemetrySample& s) {
  std::ostringstream os;
  os << "{\"seq\": " << s.seq << ", \"t_ms\": ";
  write_number(os, s.t_ms);
  std::ostringstream counters, gauges, hists;
  bool first_c = true, first_g = true, first_h = true;
  for (const Registry::Sample& m : s.metrics) {
    switch (m.kind) {
      case 'c': {
        if (!first_c) counters << ", ";
        first_c = false;
        counters << "\"";
        json_escape(counters, m.name);
        counters << "\": ";
        write_number(counters, m.value);
        break;
      }
      case 'g': {
        if (!first_g) gauges << ", ";
        first_g = false;
        gauges << "\"";
        json_escape(gauges, m.name);
        gauges << "\": ";
        write_number(gauges, m.value);
        break;
      }
      case 'h': {
        if (!first_h) hists << ", ";
        first_h = false;
        hists << "\"";
        json_escape(hists, m.name);
        hists << "\": {\"count\": " << m.count << ", \"sum\": " << m.sum
              << ", \"mean\": ";
        write_number(hists, m.value);
        hists << ", \"p50_le\": " << m.p50_bound
              << ", \"p90_le\": " << m.p90_bound
              << ", \"p99_le\": " << m.p99_bound << ", \"buckets\": [";
        bool first_b = true;
        for (const auto& [le, cum] : m.buckets) {
          if (!first_b) hists << ", ";
          first_b = false;
          hists << "[" << le << ", " << cum << "]";
        }
        hists << "]}";
        break;
      }
      default: break;
    }
  }
  if (!first_c) os << ", \"counters\": {" << counters.str() << "}";
  if (!first_g) os << ", \"gauges\": {" << gauges.str() << "}";
  if (!first_h) os << ", \"hists\": {" << hists.str() << "}";
  os << "}";
  return os.str();
}

std::string format_jsonl_record(const std::string& json) {
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", util::crc32(json));
  return json + "\t" + hex + "\n";
}

Sampler::Sampler(TelemetryConfig cfg, Registry* registry)
    : cfg_(std::move(cfg)),
      registry_(registry != nullptr ? registry : &default_registry()),
      t0_(std::chrono::steady_clock::now()) {}

Sampler::~Sampler() { stop(); }

void Sampler::ensure_out_open() {
  // Callers hold mu_.
  if (out_fd_ >= 0 || out_failed_ || cfg_.out_path.empty()) return;
  const std::string dir_err = util::ensure_parent_dir(cfg_.out_path);
  if (!dir_err.empty()) {
    ACTNET_WARN("telemetry: " << dir_err << "; keeping samples in memory only");
    out_failed_ = true;
    return;
  }
  out_fd_ = ::open(cfg_.out_path.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (out_fd_ < 0) {
    ACTNET_WARN("telemetry: cannot open " << cfg_.out_path
                                          << "; keeping samples in memory only");
    out_failed_ = true;
  }
}

void Sampler::append_record(const std::string& json) {
  // Callers hold mu_. One write() per whole line (O_APPEND): a crash can
  // tear at most the final line, which the loader skips and counts.
  ensure_out_open();
  if (out_fd_ < 0) return;
  const std::string line = format_jsonl_record(json);
  if (!write_all(out_fd_, line.data(), line.size())) {
    ACTNET_WARN("telemetry: write to " << cfg_.out_path << " failed; "
                                       << "suspending file output");
    ::close(out_fd_);
    out_fd_ = -1;
    out_failed_ = true;
  }
}

void Sampler::write_prom_file(const std::vector<Registry::Sample>& metrics) {
  if (cfg_.prom_path.empty()) return;
  const std::string dir_err = util::ensure_parent_dir(cfg_.prom_path);
  if (!dir_err.empty()) {
    ACTNET_WARN("telemetry: " << dir_err);
    cfg_.prom_path.clear();
    return;
  }
  // Atomic publish so a scraper never sees a half-written exposition. No
  // fsync: this is a scrape surface, not a durable log.
  const std::string tmp = cfg_.prom_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      ACTNET_WARN("telemetry: cannot write " << tmp);
      cfg_.prom_path.clear();
      return;
    }
    write_prometheus(os, metrics);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, cfg_.prom_path, ec);
  if (ec) {
    ACTNET_WARN("telemetry: cannot rename " << tmp << ": " << ec.message());
    cfg_.prom_path.clear();
  }
}

void Sampler::check_stall(const TelemetrySample& s) {
  // Callers hold mu_.
  if (cfg_.stall_ms <= 0) return;
  double events = -1.0;
  for (const Registry::Sample& m : s.metrics) {
    if (m.kind == 'c' && m.name == kEventsCounter) {
      events = m.value;
      break;
    }
  }
  if (events < 0.0) return;  // no engine has finished yet
  if (events != last_events_) {
    last_events_ = events;
    last_advance_ms_ = s.t_ms;
    stall_flagged_ = false;  // new episode possible after fresh progress
    return;
  }
  const double stalled_ms = s.t_ms - last_advance_ms_;
  if (events <= 0.0 || stall_flagged_ ||
      stalled_ms < static_cast<double>(cfg_.stall_ms))
    return;
  // One-shot per episode: flag, log, and append a diagnostic record with
  // the collapsed-stack profile so the post-mortem shows where wall time
  // went while virtual time stood still.
  stall_flagged_ = true;
  ++stall_episodes_;
  ACTNET_WARN("telemetry: stall — " << kEventsCounter << " stuck at "
                                    << static_cast<std::uint64_t>(events)
                                    << " for " << stalled_ms << " ms");
  std::ostringstream os;
  os << "{\"seq\": " << s.seq << ", \"t_ms\": ";
  write_number(os, s.t_ms);
  os << ", \"stall\": true, \"stalled_ms\": ";
  write_number(os, stalled_ms);
  os << ", \"events\": " << static_cast<std::uint64_t>(events)
     << ", \"profile\": {";
  bool first = true;
  for (const ProfEntry& e : profile_snapshot()) {
    if (!first) os << ", ";
    first = false;
    os << "\"";
    json_escape(os, e.stack);
    os << "\": " << e.self_ns;
  }
  os << "}}";
  append_record(os.str());
}

void Sampler::sample_once() {
  ProfScope prof(Subsystem::kSampler);
  TelemetrySample s;
  s.metrics = registry_->snapshot();  // outside mu_: registry lock only
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  s.seq = next_seq_++;
  s.t_ms = std::chrono::duration<double, std::milli>(now - t0_).count();
  append_record(format_sample_json(s));
  check_stall(s);
  write_prom_file(s.metrics);
  recorder_.push_back(s);
  while (recorder_.size() > cfg_.keep && !recorder_.empty())
    recorder_.pop_front();
  prev_ = std::move(s);
  have_prev_ = true;
}

void Sampler::run_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(cfg_.interval_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

void Sampler::start() {
  if (cfg_.interval_ms <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
  ACTNET_INFO("telemetry: sampling every " << cfg_.interval_ms << " ms"
              << (cfg_.out_path.empty() ? "" : " -> " + cfg_.out_path));
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      // Never started (or already stopped): nothing to join, nothing to
      // flush twice.
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Final sample + the collapsed-stack profile record, so a completed run
  // always ends with a fresh snapshot and the profile actnet_stat --prof
  // renders.
  sample_once();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  std::ostringstream os;
  os << "{\"seq\": " << next_seq_++ << ", \"t_ms\": ";
  write_number(os, std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0_)
                       .count());
  os << ", \"profile\": {";
  bool first = true;
  for (const ProfEntry& e : profile_snapshot()) {
    if (!first) os << ", ";
    first = false;
    os << "\"";
    json_escape(os, e.stack);
    os << "\": " << e.self_ns;
  }
  os << "}}";
  append_record(os.str());
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool Sampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

std::uint64_t Sampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::vector<TelemetrySample> Sampler::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recorder_.begin(), recorder_.end()};
}

bool Sampler::stalled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_flagged_;
}

std::uint64_t Sampler::stall_episodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_episodes_;
}

TelemetryLog load_telemetry(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ACTNET_CHECK_MSG(in.good(), "cannot open telemetry log " << path);
  TelemetryLog log;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // "<json>\t<crc32hex>": validate before parsing. A torn tail fails
    // here (its CRC suffix is missing or wrong) and is just counted.
    const auto sep = line.rfind('\t');
    bool ok = sep != std::string::npos && line.size() - sep - 1 == 8;
    std::uint32_t want = 0;
    if (ok) {
      for (std::size_t i = sep + 1; i < line.size(); ++i) {
        const char c = line[i];
        want <<= 4;
        if (c >= '0' && c <= '9') want |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
          want |= static_cast<std::uint32_t>(c - 'a' + 10);
        else {
          ok = false;
          break;
        }
      }
    }
    const std::string json = ok ? line.substr(0, sep) : std::string();
    if (!ok || util::crc32(json) != want) {
      ++log.corrupt_lines;
      continue;
    }
    const auto doc = util::JsonValue::try_parse(json);
    if (!doc || !doc->is_object()) {
      ++log.corrupt_lines;
      continue;
    }
    if (const util::JsonValue* prof = doc->find("profile")) {
      if (doc->has("stall")) ++log.stall_records;
      log.profile.clear();
      for (const auto& [stack, ns] : prof->as_object())
        log.profile.emplace_back(stack,
                                 static_cast<std::uint64_t>(ns.as_number()));
      continue;
    }
    TelemetrySample s;
    s.seq = static_cast<std::uint64_t>(doc->number_or("seq", 0));
    s.t_ms = doc->number_or("t_ms", 0.0);
    if (const util::JsonValue* counters = doc->find("counters")) {
      for (const auto& [name, v] : counters->as_object()) {
        Registry::Sample m;
        m.name = name;
        m.kind = 'c';
        m.value = v.as_number();
        s.metrics.push_back(std::move(m));
      }
    }
    if (const util::JsonValue* gauges = doc->find("gauges")) {
      for (const auto& [name, v] : gauges->as_object()) {
        Registry::Sample m;
        m.name = name;
        m.kind = 'g';
        m.value = v.as_number();
        s.metrics.push_back(std::move(m));
      }
    }
    if (const util::JsonValue* hists = doc->find("hists")) {
      for (const auto& [name, v] : hists->as_object()) {
        Registry::Sample m;
        m.name = name;
        m.kind = 'h';
        m.count = static_cast<std::uint64_t>(v.number_or("count", 0));
        m.sum = static_cast<std::uint64_t>(v.number_or("sum", 0));
        m.value = v.number_or("mean", 0.0);
        m.p50_bound = static_cast<std::uint64_t>(v.number_or("p50_le", 0));
        m.p90_bound = static_cast<std::uint64_t>(v.number_or("p90_le", 0));
        m.p99_bound = static_cast<std::uint64_t>(v.number_or("p99_le", 0));
        if (const util::JsonValue* buckets = v.find("buckets")) {
          for (const util::JsonValue& b : buckets->as_array()) {
            const auto& pair = b.as_array();
            if (pair.size() != 2) continue;
            m.buckets.emplace_back(
                static_cast<std::uint64_t>(pair[0].as_number()),
                static_cast<std::uint64_t>(pair[1].as_number()));
          }
        }
        s.metrics.push_back(std::move(m));
      }
    }
    // snapshot() order (sorted by name) is not preserved across the
    // per-kind JSON objects; restore it so compute_rates' merge walk works.
    std::sort(s.metrics.begin(), s.metrics.end(),
              [](const Registry::Sample& a, const Registry::Sample& b) {
                return a.name < b.name;
              });
    log.samples.push_back(std::move(s));
  }
  return log;
}

void write_prometheus(std::ostream& os,
                      const std::vector<Registry::Sample>& metrics) {
  for (const Registry::Sample& m : metrics) {
    const std::string name = prom_name(m.name);
    switch (m.kind) {
      case 'c':
        os << "# TYPE " << name << " counter\n" << name << " ";
        write_number(os, m.value);
        os << "\n";
        break;
      case 'g':
        os << "# TYPE " << name << " gauge\n" << name << " ";
        write_number(os, m.value);
        os << "\n";
        break;
      case 'h': {
        os << "# TYPE " << name << " histogram\n";
        for (const auto& [le, cum] : m.buckets)
          os << name << "_bucket{le=\"" << le << "\"} " << cum << "\n";
        os << name << "_bucket{le=\"+Inf\"} " << m.count << "\n";
        os << name << "_sum " << m.sum << "\n";
        os << name << "_count " << m.count << "\n";
        break;
      }
      default: break;
    }
  }
}

namespace {
std::unique_ptr<Sampler>& global_sampler_slot() {
  // Function-local static: destroyed at exit after main returns, which
  // stops the thread and flushes the final profile record.
  static std::unique_ptr<Sampler> sampler;
  return sampler;
}
}  // namespace

Sampler* start_global_sampler(const TelemetryConfig& cfg) {
  std::unique_ptr<Sampler>& slot = global_sampler_slot();
  if (slot != nullptr) return slot.get();
  if (cfg.interval_ms <= 0) return nullptr;
  // Scopes read the profiler switch at construction; flip it before the
  // campaign builds anything. (The registry needs no switch: owners
  // publish into it as they are destroyed, and it is never torn down, so
  // the slot's exit-time stop() can still snapshot it.)
  set_profiling_enabled(true);
  attach_profile_gauges(default_registry());
  slot = std::make_unique<Sampler>(cfg);
  slot->start();
  return slot.get();
}

Sampler* global_sampler() { return global_sampler_slot().get(); }

}  // namespace actnet::obs
