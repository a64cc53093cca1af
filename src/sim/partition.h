// Partitioned discrete-event runtime: conservative-lookahead windows over
// per-domain engines, run on the calling thread (DESIGN.md §5.14).
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
//   2. each domain in turn runs its events in [wstart, wstart + lookahead - 1]
//   3. outboxes drain into destination engines in a fixed order
//
// Step 2 needs no cross-domain coordination: any message a domain emits
// during the window carries a timestamp >= wstart + lookahead (the emitting
// event fires at t >= wstart and every cross-domain path adds >= lookahead
// of latency), which is strictly past the window — so no domain can
// receive anything this window that it did not already know about. The
// lookahead bound is enforced, not assumed: post() rejects timestamps below
// the current safe time. Null messages are unnecessary because the bound is
// static per topology (cable propagation does not change mid-run).
//
// Determinism: the partition layout is fixed by the topology. Each
// domain's event order is its own engine's (time, seq) order, and the
// drain step runs in (source domain, post order), so same-tick
// cross-domain arrivals get destination sequence numbers that depend only
// on what was posted.
#pragma once

#include <cstdint>
#include <memory>
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
  /// cross-domain latency (the window width).
  PartitionedEngine(int domains, Tick lookahead);
  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;
  /// Publishes total_stats() into obs::default_registry()
  /// ("sim.partition.*").
  ~PartitionedEngine();

  int domains() const { return static_cast<int>(domains_.size()); }
  Tick lookahead() const { return lookahead_; }

  /// The domain's private engine. Model state belonging to domain d must
  /// only be touched from events running on domain(d).
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
  /// (initial seeding) or from an event executing on domain `src`.
  /// Enforces the lookahead invariant: t >= safe_time().
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

 private:
  /// One cross-domain message; outboxes keep post order per source.
  struct Channel {
    Tick t;
    int dst;
    EventFn fn;
  };

  /// Runs every domain up to `wend`, in domain order.
  void execute_window(Tick wend);
  void drain_channels();

  Tick lookahead_;
  std::vector<std::unique_ptr<Engine>> domains_;
  std::vector<DomainStats> stats_;
  /// Per-source-domain outboxes, drained after each window.
  std::vector<std::vector<Channel>> outboxes_;
  Tick now_ = 0;
  Tick safe_time_ = 0;
};

}  // namespace actnet::sim
