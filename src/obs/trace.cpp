#include "obs/trace.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/env.h"
#include "util/fsio.h"
#include "util/log.h"

namespace actnet::obs {

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  return out;
}

/// "trace.json" + label "pair_AMG_FFT" -> "trace.pair_AMG_FFT.json".
/// Unlabeled tracers get a process-wide sequence number instead so two
/// clusters never write to the same file.
std::string resolve_path(const TraceConfig& cfg) {
  if (cfg.path.empty()) return {};
  std::string tag;
  if (!cfg.label.empty()) {
    tag = sanitize(cfg.label);
  } else {
    static std::atomic<int> seq{0};
    tag = std::to_string(seq.fetch_add(1));
  }
  const auto dot = cfg.path.rfind('.');
  const auto slash = cfg.path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return cfg.path + "." + tag;
  return cfg.path.substr(0, dot) + "." + tag + cfg.path.substr(dot);
}

/// Ticks (int64 ns) to trace_event microseconds without float rounding.
void write_us(std::ostream& os, Tick t) {
  const Tick us = t / 1000;
  const Tick ns = t % 1000;
  os << us;
  if (ns != 0) {
    os << '.' << static_cast<char>('0' + ns / 100)
       << static_cast<char>('0' + (ns / 10) % 10)
       << static_cast<char>('0' + ns % 10);
  }
}

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  if (const char* p = std::getenv("ACTNET_TRACE")) cfg.path = p;
  if (const double ms = util::env_double("ACTNET_TRACE_WINDOW_MS"); ms > 0)
    cfg.end = cfg.start + static_cast<Tick>(ms * 1e6);
  return cfg;
}

Tracer::Tracer(TraceConfig cfg)
    : cfg_(std::move(cfg)), resolved_path_(resolve_path(cfg_)) {
  events_.reserve(4096);
}

Tracer::~Tracer() {
  if (resolved_path_.empty() || events_.empty()) return;
  // Log-don't-throw: we are in a destructor, possibly during unwinding.
  const std::string dir_err = util::ensure_parent_dir(resolved_path_);
  if (!dir_err.empty()) {
    ACTNET_WARN("trace: " << dir_err);
    return;
  }
  std::ofstream f(resolved_path_);
  if (!f) {
    ACTNET_WARN("trace: cannot open " << resolved_path_);
    return;
  }
  write(f);
  ACTNET_INFO("trace: wrote " << events_.size() << " events to "
                              << resolved_path_);
}

void Tracer::push(Event e) {
  if (full_) return;
  events_.push_back(std::move(e));
  if (events_.size() >= cfg_.max_events) full_ = true;
}

int Tracer::register_process(const std::string& name) {
  const int pid = next_pid_++;
  Event e;
  e.ph = 'M';
  e.pid = pid;
  e.ts = 0;  // marks process_name metadata; see write()
  e.name = name;
  // Metadata events bypass the window gate but still respect the cap.
  push(std::move(e));
  return pid;
}

void Tracer::name_thread(int pid, int tid, const std::string& name) {
  Event e;
  e.ph = 'M';
  e.pid = pid;
  e.tid = tid;
  e.ts = 1;  // marks thread_name (vs process_name) metadata; see write()
  e.name = name;
  push(std::move(e));
}

void Tracer::complete(int pid, int tid, Tick start, Tick dur,
                      const char* name) {
  Event e;
  e.ph = 'X';
  e.pid = pid;
  e.tid = tid;
  e.ts = start;
  e.dur = dur;
  e.name = name;
  push(std::move(e));
}

void Tracer::counter(int pid, const std::string& track, Tick t, double value) {
  Event e;
  e.ph = 'C';
  e.pid = pid;
  e.ts = t;
  e.name = track;
  e.value = value;
  push(std::move(e));
}

void Tracer::instant(int pid, int tid, Tick t, const char* name) {
  Event e;
  e.ph = 'i';
  e.pid = pid;
  e.tid = tid;
  e.ts = t;
  e.name = name;
  push(std::move(e));
}

void Tracer::write(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) os << ",\n";
    first = false;
    switch (e.ph) {
      case 'M':
        os << "{\"ph\":\"M\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
           << ",\"name\":\"" << (e.ts == 0 ? "process_name" : "thread_name")
           << "\",\"args\":{\"name\":\"";
        write_escaped(os, e.name);
        os << "\"}}";
        break;
      case 'X':
        os << "{\"ph\":\"X\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
           << ",\"ts\":";
        write_us(os, e.ts);
        os << ",\"dur\":";
        write_us(os, e.dur);
        os << ",\"name\":\"";
        write_escaped(os, e.name);
        os << "\"}";
        break;
      case 'C':
        os << "{\"ph\":\"C\",\"pid\":" << e.pid << ",\"ts\":";
        write_us(os, e.ts);
        os << ",\"name\":\"";
        write_escaped(os, e.name);
        os << "\",\"args\":{\"value\":" << e.value << "}}";
        break;
      case 'i':
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid << ",\"ts\":";
        write_us(os, e.ts);
        os << ",\"name\":\"";
        write_escaped(os, e.name);
        os << "\"}";
        break;
      default:
        break;
    }
  }
  os << "\n]}\n";
}

}  // namespace actnet::obs
