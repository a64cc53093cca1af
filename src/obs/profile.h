// Subsystem self-profiler: scoped wall-time attribution with collapsed
// call stacks.
//
// A ProfScope marks "this thread is now doing <subsystem> work" for its
// lifetime. Scopes nest — a network transmit issued from inside the engine
// drain loop records under the path "engine;net" — and each frame is
// credited its *self* time (wall time minus enclosed child scopes), so the
// totals add up like a sampling profiler's collapsed stacks
// (https://github.com/brendangregg/FlameGraph format: "a;b;c <weight>").
//
// Design constraints (the same bar as obs/metrics.h):
//  * Near-zero cost when disabled: one relaxed atomic load per scope.
//  * Non-perturbing: wall-clock reads only. No engine events, no RNG, no
//    virtual time — simulated results are byte-identical either way.
//  * Thread-safe: frames live in thread-local storage; cross-thread
//    aggregation happens only in profile_snapshot()/busy_ns readers, which
//    take each thread's (normally uncontended) accumulator lock.
//
// The profiler feeds the telemetry sampler two ways: per-subsystem busy
// seconds surface as callback gauges ("prof.engine.busy_seconds", ...) in
// whatever registry attach_profile_gauges() is pointed at, and the full
// path map is dumped in collapsed-stack format at sampler shutdown (and in
// the stall watchdog's diagnostic record).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace actnet::obs {

class Registry;

/// The instrumented subsystems. Fixed and small on purpose: a scope's path
/// is encoded as one nibble per frame.
enum class Subsystem : std::uint8_t {
  kEngine = 0,   ///< sim::Engine::drain — the event loop itself
  kNet = 1,      ///< net::Network::send — message injection / transmit
  kMpi = 2,      ///< mpi::Comm post/progress — matching and protocol work
  kCacheIo = 3,  ///< core::MeasurementDb file load/append/rewrite
  kValid = 4,    ///< valid:: conformance sweeps
  kSampler = 5,  ///< the telemetry sampler's own snapshot work
};
inline constexpr int kSubsystemCount = 6;

/// Short stable name ("engine", "net", ...) used in gauge names and
/// collapsed-stack paths.
const char* subsystem_name(Subsystem s);

/// Process-wide profiler switch, read per scope construction; initialized
/// from ACTNET_PROFILE=1 and flipped on by the telemetry sampler. Scopes
/// constructed while disabled stay inert for their whole lifetime.
bool profiling_enabled();
void set_profiling_enabled(bool on);

/// RAII frame: attributes the enclosed wall time to `s` on this thread.
/// Nested scopes deepen the path (up to kMaxDepth; deeper frames fold into
/// their parent). Cheap enough for per-message use; not for per-event use.
class ProfScope {
 public:
  static constexpr int kMaxDepth = 8;

  explicit ProfScope(Subsystem s);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool active_;
};

/// One collapsed-stack entry: "engine;net" style path, exclusive
/// (self) nanoseconds, and the number of scopes that contributed.
struct ProfEntry {
  std::string stack;
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// Merged view across all threads (live and exited), sorted by path.
std::vector<ProfEntry> profile_snapshot();

/// Total self-time ever attributed to `s`, at any stack depth: the sum of
/// every path whose innermost frame is `s`.
std::uint64_t profile_busy_ns(Subsystem s);

/// Writes profile_snapshot() in collapsed-stack format, one
/// "path self_ns" line per entry — ready for flamegraph.pl.
void write_profile_collapsed(std::ostream& os);

/// Drops all accumulated time (tests).
void reset_profile();

/// Registers "prof.<subsystem>.busy_seconds" callback gauges in `r`, so
/// profiler totals ride the same sampler/exporter path as every other
/// metric. Idempotent per registry (callback_gauge keeps the first
/// callback).
void attach_profile_gauges(Registry& r);

}  // namespace actnet::obs
