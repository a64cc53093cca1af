// Partitioned discrete-event runtime: conservative-lookahead window
// barriers over per-domain engines (DESIGN.md §5.14).
//
// The simulation is split into DOMAINS — disjoint groups of model state
// (one fat-tree pod, the spine block) that only interact through links
// whose latency is bounded below by a static `lookahead`. Each domain owns
// a private sim::Engine; cross-domain interactions travel as timestamped
// channel messages posted with post() and drained at window boundaries.
//
// The window loop is the classic null-message-free conservative scheme:
//
//   1. wstart = min over domains of next_event_time()   (adaptive start)
//   2. every domain runs its events in [wstart, wstart + lookahead - 1]
//      — in parallel, no locks, no shared state
//   3. barrier; outboxes drain into destination engines in a fixed order
//
// Step 2 is safe because any message a domain emits during the window
// carries a timestamp >= wstart + lookahead (the emitting event fires at
// t >= wstart and every cross-domain path adds >= lookahead of latency),
// which is strictly past the window — so no domain can receive anything
// this window that it did not already know about. The lookahead bound is
// enforced, not assumed: post() rejects timestamps below the current
// safe time. Null messages are unnecessary because the bound is static
// per topology (cable propagation does not change mid-run), so every
// domain always knows the global safe horizon without peer traffic.
//
// Determinism: the partition layout is fixed by the topology, NOT by the
// worker count — `workers` (ACTNET_PARTITIONS) only chooses how many OS
// threads execute the domains inside a window. Each domain's event order
// is its own engine's (time, seq) order regardless of which thread runs
// it, and the drain step is single-threaded in (src domain, post order),
// so results are byte-identical for every worker count by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.h"
#include "util/units.h"

namespace actnet::sim {

class PartitionedEngine {
 public:
  /// Per-domain progress counters (read between run_until calls).
  struct DomainStats {
    std::uint64_t windows = 0;         ///< windows in which events ran
    std::uint64_t barrier_stalls = 0;  ///< windows entered with no work
    std::uint64_t messages_out = 0;    ///< channel messages posted from here
    std::uint64_t messages_in = 0;     ///< channel messages drained into here
  };

  /// `domains` >= 1 logical partitions; `lookahead` >= 1 is the minimum
  /// cross-domain latency (the window width). `workers` threads execute
  /// the windows: 0 resolves ACTNET_PARTITIONS (default 1 = serial; the
  /// caller's thread always participates, so N workers = N-1 spawned
  /// threads); values are clamped to `domains`.
  PartitionedEngine(int domains, Tick lookahead, int workers = 0);
  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;
  /// Joins the workers and publishes total_stats() into
  /// obs::default_registry() ("sim.partition.*").
  ~PartitionedEngine();

  int domains() const { return static_cast<int>(domains_.size()); }
  int workers() const { return workers_; }
  Tick lookahead() const { return lookahead_; }

  /// The domain's private engine. Model state belonging to domain d must
  /// only be touched from events running on domain(d) — the runtime never
  /// locks it.
  Engine& domain(int d) { return *domains_[static_cast<std::size_t>(d)]; }
  const Engine& domain(int d) const {
    return *domains_[static_cast<std::size_t>(d)];
  }

  /// Global clock floor: every domain's now() after the last run_until.
  Tick now() const { return now_; }

  /// First timestamp a cross-domain message may currently carry: one past
  /// the window being (or just) executed. Events with t < safe_time() have
  /// either run or are unreachable — the lookahead invariant.
  Tick safe_time() const { return safe_time_; }

  /// Posts a timestamped channel message: `fn` will run on domain `dst`'s
  /// engine at time `t`. Must be called either before run_until() starts
  /// (initial seeding) or from an event executing on domain `src` — the
  /// outbox is single-writer per source domain. Enforces the lookahead
  /// invariant: t >= safe_time().
  void post(int src, int dst, Tick t, EventFn fn);

  /// Runs every domain's events with time <= t (window by window), then
  /// advances all clocks to t. Returns the number of events run.
  std::uint64_t run_until(Tick t);

  std::uint64_t events_processed() const;
  const DomainStats& stats(int d) const {
    return stats_[static_cast<std::size_t>(d)];
  }
  /// Aggregates over all domains (windows/stalls sum domain entries, so a
  /// 4-domain run counts 4 per global window).
  DomainStats total_stats() const;

  /// Resolves ACTNET_PARTITIONS: unset/empty -> 1 (serial), "auto" ->
  /// hardware_concurrency, "<n>" -> n (must parse positive). The result is
  /// clamped to `domains`, never below 1.
  static int workers_from_env(int domains);

 private:
  /// One cross-domain message; outboxes keep post order per source.
  struct Channel {
    Tick t;
    int dst;
    EventFn fn;
  };

  static int resolve_workers(int domains, int workers);
  template <typename Fn>
  void record_error(Fn&& fn);
  void start_workers();
  void worker_loop(int w);
  /// Runs worker w's share of domains (d % workers == w) up to `wend`.
  void run_domains(int w, Tick wend);
  std::uint64_t execute_window(Tick wend);
  void drain_channels();

  Tick lookahead_;
  int workers_;
  std::vector<std::unique_ptr<Engine>> domains_;
  std::vector<DomainStats> stats_;
  /// Per-source-domain outboxes; written only by the source domain's
  /// events (single-threaded per domain), drained at the barrier.
  std::vector<std::vector<Channel>> outboxes_;
  Tick now_ = 0;
  Tick safe_time_ = 0;

  // Window barrier (workers_ > 1 only). Main publishes window_end_, then
  // release-increments phase_; workers acquire phase_, run their domains,
  // release-increment done_. Those two edges carry all engine and outbox
  // state across threads — everything else is phase-local.
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> shutdown_{false};
  Tick window_end_ = 0;  ///< ordered by phase_ (write before release inc)
  /// First exception thrown by a domain event inside a window; rethrown on
  /// the coordinating thread after the barrier so model errors surface as
  /// ordinary exceptions instead of terminating a worker.
  std::mutex err_mu_;
  std::exception_ptr err_;
};

}  // namespace actnet::sim
