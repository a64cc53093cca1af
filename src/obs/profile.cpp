#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>

#include "util/env.h"

namespace actnet::obs {

namespace {

/// Read on first use rather than during static initialization, where a
/// malformed ACTNET_PROFILE would terminate the process before main.
std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{util::env_flag("ACTNET_PROFILE")};
  return flag;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A stack path packed one nibble per frame, innermost in the low bits;
/// nibble value = subsystem + 1 so 0 terminates. kMaxDepth = 8 frames fit
/// a uint64 with room to spare.
using PathKey = std::uint64_t;

struct PathStat {
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// Per-thread accumulator. The owning thread takes `mu` only in ProfScope
/// destructors (uncontended unless a snapshot is running); snapshot takes
/// it briefly per thread. On thread exit the totals retire into the global
/// map so no time is lost.
struct ThreadProf;

struct Global {
  std::mutex mu;
  std::vector<ThreadProf*> threads;
  std::map<PathKey, PathStat> retired;
};

Global& global() {
  static Global* g = new Global;  // leaked: outlives late-exiting threads
  return *g;
}

struct Frame {
  Subsystem subsystem;
  std::uint64_t t0 = 0;
  std::uint64_t child_ns = 0;
};

struct ThreadProf {
  std::mutex mu;
  std::map<PathKey, PathStat> paths;
  Frame stack[ProfScope::kMaxDepth];
  int depth = 0;       // live frames (folded frames excluded)
  int overflow = 0;    // frames beyond kMaxDepth, folded into the top

  ThreadProf();
  ~ThreadProf();
};

thread_local ThreadProf t_prof;

/// Trivially-destructible, so unlike t_prof it is never torn down and stays
/// readable through thread/process exit. Set while t_prof is alive: the
/// main thread's thread-locals are destroyed *before* statics, and an
/// exit-time static destructor (e.g. a measurement cache's final flush)
/// may still open a ProfScope — it must not touch the dead t_prof.
thread_local bool t_prof_alive = false;

ThreadProf::ThreadProf() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.threads.push_back(this);
  t_prof_alive = true;
}

ThreadProf::~ThreadProf() {
  t_prof_alive = false;
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.threads.erase(std::remove(g.threads.begin(), g.threads.end(), this),
                  g.threads.end());
  for (const auto& [k, v] : paths) {
    PathStat& r = g.retired[k];
    r.self_ns += v.self_ns;
    r.count += v.count;
  }
}

/// Short stable name ("engine", "net", ...) used in collapsed-stack paths.
const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kEngine: return "engine";
    case Subsystem::kNet: return "net";
    case Subsystem::kMpi: return "mpi";
    case Subsystem::kCacheIo: return "cache_io";
    case Subsystem::kValid: return "valid";
  }
  return "?";
}

std::string decode_path(PathKey key) {
  // Nibbles were pushed outermost-first, so the outermost frame sits in
  // the highest occupied nibble.
  Subsystem frames[ProfScope::kMaxDepth];
  int n = 0;
  while (key != 0) {
    frames[n++] = static_cast<Subsystem>((key & 0xF) - 1);
    key >>= 4;
  }
  std::string out;
  for (int i = n - 1; i >= 0; --i) {
    if (!out.empty()) out += ';';
    out += subsystem_name(frames[i]);
  }
  return out;
}

/// Every thread's path map (live and retired), summed per path.
std::map<PathKey, PathStat> merged_paths() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::map<PathKey, PathStat> merged = g.retired;
  for (ThreadProf* tp : g.threads) {
    std::lock_guard<std::mutex> tlock(tp->mu);
    for (const auto& [k, v] : tp->paths) {
      PathStat& r = merged[k];
      r.self_ns += v.self_ns;
      r.count += v.count;
    }
  }
  return merged;
}

}  // namespace

bool profiling_enabled() {
  return profiling_flag().load(std::memory_order_relaxed);
}
void set_profiling_enabled(bool on) {
  profiling_flag().store(on, std::memory_order_relaxed);
}

ProfScope::ProfScope(Subsystem s) : active_(profiling_enabled()) {
  if (!active_) return;
  ThreadProf& tp = t_prof;  // constructs on first use, setting t_prof_alive
  if (!t_prof_alive) {      // this thread's accumulator is already destroyed
    active_ = false;
    return;
  }
  if (tp.depth >= kMaxDepth) {
    // Deeper than we encode: fold this frame's time into the current top.
    ++tp.overflow;
    return;
  }
  tp.stack[tp.depth++] = Frame{s, now_ns(), 0};
}

ProfScope::~ProfScope() {
  if (!active_ || !t_prof_alive) return;
  ThreadProf& tp = t_prof;
  if (tp.overflow > 0) {
    --tp.overflow;
    return;
  }
  if (tp.depth == 0) return;  // set_profiling_enabled flipped mid-scope
  Frame f = tp.stack[--tp.depth];
  const std::uint64_t dur = now_ns() - f.t0;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  if (tp.depth > 0) tp.stack[tp.depth - 1].child_ns += dur;
  // Re-push conceptually: the key must include this frame.
  PathKey key = 0;
  for (int i = 0; i < tp.depth; ++i)
    key = (key << 4) | (static_cast<PathKey>(tp.stack[i].subsystem) + 1);
  key = (key << 4) | (static_cast<PathKey>(f.subsystem) + 1);
  std::lock_guard<std::mutex> lock(tp.mu);
  PathStat& st = tp.paths[key];
  st.self_ns += self;
  st.count += 1;
}

std::vector<ProfEntry> profile_snapshot() {
  const std::map<PathKey, PathStat> merged = merged_paths();
  std::vector<ProfEntry> out;
  out.reserve(merged.size());
  for (const auto& [k, v] : merged)
    out.push_back(ProfEntry{decode_path(k), v.self_ns, v.count});
  std::sort(out.begin(), out.end(),
            [](const ProfEntry& a, const ProfEntry& b) {
              return a.stack < b.stack;
            });
  return out;
}

std::uint64_t profile_busy_ns(Subsystem s) {
  // The innermost frame sits in a path key's low nibble.
  const PathKey leaf = static_cast<PathKey>(s) + 1;
  std::uint64_t total = 0;
  for (const auto& [k, v] : merged_paths())
    if ((k & 0xF) == leaf) total += v.self_ns;
  return total;
}

void reset_profile() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.retired.clear();
  for (ThreadProf* tp : g.threads) {
    std::lock_guard<std::mutex> tlock(tp->mu);
    tp->paths.clear();
  }
}

}  // namespace actnet::obs
