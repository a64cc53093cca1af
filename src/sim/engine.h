// Discrete-event simulation engine.
//
// A single-threaded engine with an event queue ordered by (time, insertion
// sequence). The sequence number makes simultaneous events fire in
// deterministic FIFO order, which in turn makes every experiment in this
// repository bit-reproducible for a given seed.
//
// Hot-path layout: the priority queue orders small POD keys (time,
// sequence, slot index) while the callables live out-of-line in a
// free-listed slot vector, so queue maintenance moves 24-byte keys instead
// of 64-byte callables, and slot reuse keeps the steady state
// allocation-free. Callables are sim::InlineFn — closures up to 48 bytes
// of capture never touch the heap — and travel by rvalue reference from
// schedule_*() into their slot, so each event moves its callable once on
// the way in and once on the way out.
//
// The queue itself is a 4-ary min-heap over those keys (event_queue.h).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_fn.h"
#include "util/error.h"
#include "util/units.h"

namespace actnet::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace actnet::obs

namespace actnet::sim {

/// Event callback: move-only, small-buffer-inline (see inline_fn.h).
using EventFn = InlineFn<void()>;

class Engine {
 public:
  /// Self-attaches to obs::default_registry() when obs::enabled(); with
  /// observability off the metric pointers stay null and the engine is
  /// exactly as fast as before they existed.
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers this engine's metrics in `r`. Metric names are aggregates:
  /// every attached engine bumps the same counters ("sim.engine.*").
  void attach_metrics(obs::Registry& r);

  /// Current simulated time. Monotonically non-decreasing.
  Tick now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()).
  void schedule_at(Tick t, EventFn&& fn) { push_event(t, std::move(fn)); }

  /// Handle to a cancellable event. Tokens are validated against the
  /// event's slot+sequence pair, so a stale token (the event already fired,
  /// or its slot was reused) is recognized and cancel() refuses it.
  struct CancelToken {
    std::uint32_t slot = 0xffffffffu;
    std::uint64_t seq = 0;
    bool valid() const { return slot != 0xffffffffu; }
  };

  /// Like schedule_at, but returns a token that cancel() accepts. Same
  /// ordering semantics; the only cost over schedule_at is the token.
  CancelToken schedule_cancellable_at(Tick t, EventFn&& fn);

  /// Cancels a pending event. Returns true when the event had not yet
  /// fired (it now never will); false for stale tokens. Cancelled events
  /// leave a tombstone key in the queue which the drain loop discards
  /// without running it or counting it toward events_processed()/budget.
  bool cancel(CancelToken token);

  std::uint64_t events_cancelled() const { return cancelled_; }

  /// Schedules `fn` `delay` after the current time (delay >= 0).
  void schedule_in(Tick delay, EventFn&& fn) {
    push_event(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the current time, after already-queued events for
  /// this instant.
  void schedule_now(EventFn&& fn) { push_event(now_, std::move(fn)); }

  /// Runs events until the queue drains. Returns the number of events run.
  std::uint64_t run();

  /// Runs events with time <= `t`, then advances now() to `t`.
  /// Returns the number of events run.
  std::uint64_t run_until(Tick t);

  /// Time of the earliest pending event, written to `*t`; false when the
  /// queue is empty. Cancelled tombstones count (their keys are still
  /// queued), so the value is a conservative lower bound — exactly what
  /// the partitioned runtime's window placement needs.
  bool next_event_time(Tick* t) const;

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Safety valve: run()/run_until() throw after this many events in a
  /// single call (guards against runaway workloads). 0 disables.
  void set_event_budget(std::uint64_t max_events) { budget_ = max_events; }

 private:
  /// slot_seq_ value of a slot whose event fired or was cancelled; real
  /// sequence numbers never reach it.
  static constexpr std::uint64_t kDeadSeq = ~std::uint64_t{0};

  std::uint32_t alloc_slot(EventFn&& fn);
  EventKey push_event(Tick t, EventFn&& fn);
  /// The shared drain loop behind run()/run_until(): one dispatch, budget
  /// check, and events_processed() accounting for both.
  std::uint64_t drain(Tick limit, bool bounded);

  std::vector<EventKey> heap_;   ///< 4-ary min-heap of pending keys
  std::vector<EventFn> slots_;   ///< out-of-line callables
  std::vector<std::uint32_t> free_slots_;
  /// Sequence number of the event currently occupying each slot (kDeadSeq
  /// when free); lets cancel() reject tokens whose event already fired.
  std::vector<std::uint64_t> slot_seq_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t budget_ = 0;

  // Observability (null unless attached). Executed counts are credited in
  // one batched add after each run loop, so the per-event path only pays
  // for metrics on schedule_at — one predictable branch when disabled.
  obs::Counter* m_scheduled_ = nullptr;
  obs::Counter* m_executed_ = nullptr;
  obs::Gauge* m_heap_peak_ = nullptr;
  obs::Gauge* m_slots_peak_ = nullptr;
};

}  // namespace actnet::sim
