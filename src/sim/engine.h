// Discrete-event simulation engine.
//
// A single-threaded engine with an event queue ordered by (time, creation
// tick, sequence place). An event's creation tick is now() and its place
// the next number of the engine's scheduling sequence, unless it is
// scheduled as of another tick at a place taken earlier (schedule_as_of),
// so simultaneous events fire in a deterministic order — FIFO for
// ordinary scheduling — which in turn makes every experiment in this
// repository bit-reproducible for a given seed.
//
// Hot-path layout: the priority queue orders small POD keys (time,
// sequence, slot index, creation lag) while the callables live out-of-line in a
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

namespace actnet::sim {

/// Event callback: move-only, small-buffer-inline (see inline_fn.h).
using EventFn = InlineFn<void()>;

class Engine {
 public:
  Engine() = default;
  /// Publishes this engine's counts into obs::default_registry()
  /// ("sim.engine.*", aggregated over every engine in the process).
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  Tick now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()).
  void schedule_at(Tick t, EventFn&& fn) {
    push_event(t, now_, next_seq_++, std::move(fn));
  }

  /// Takes the next `count` places of the scheduling sequence without
  /// scheduling anything and returns the first: an event scheduled at one
  /// of them later (schedule_as_of) sorts, among events of its tick and
  /// creation tick, where an event scheduled now would have, and the
  /// places keep their own order. Several events may share one place.
  std::uint64_t take_places(std::uint64_t count = 1) {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    places_ += count;
    return first;
  }

  /// Schedules `fn` at `t` (>= now()) as if it had been scheduled at tick
  /// `created` (<= t), which may lie before or after now(), at `place`
  /// (from take_places()): among events at tick `t` it runs after those
  /// created earlier and before those created later, and among those
  /// created at `created` by place. A flow-forward plan and its demotion
  /// use this to give an event the place the per-packet path would have
  /// created it in.
  void schedule_as_of(Tick created, std::uint64_t place, Tick t,
                      EventFn&& fn) {
    check_as_of(created, place, t);
    push_event(t, created, place, std::move(fn));
  }

  enum class Order { kBefore, kTie, kAfter };

  /// Whether an event at tick `t` created at `created` would run before
  /// the running event (it would already have run), after it, or ties with
  /// it on both ticks, so that only the two places decide.
  Order order_vs_current(Tick t, Tick created) const;

  /// Key of the running event. Outside an event callback it is a key after
  /// every event at now(): created at now(), at a place past every place.
  const EventKey& current() const { return current_; }

  /// Handle to a cancellable event. Tokens carry the generation of the
  /// event's slot, so a stale token (the event already fired, or its slot
  /// was reused — even by an event at the same place) is recognized and
  /// cancel() refuses it.
  struct CancelToken {
    std::uint32_t slot = 0xffffffffu;
    std::uint64_t gen = 0;
    bool valid() const { return slot != 0xffffffffu; }
  };

  /// Like schedule_at, but returns a token that cancel() accepts. Same
  /// ordering semantics; the only cost over schedule_at is the token.
  CancelToken schedule_cancellable_at(Tick t, EventFn&& fn);
  /// schedule_as_of with a token.
  CancelToken schedule_cancellable_as_of(Tick created, std::uint64_t place,
                                         Tick t, EventFn&& fn);

  /// Cancels a pending event. Returns true when the event had not yet
  /// fired (it now never will); false for stale tokens. Cancelled events
  /// leave a tombstone key in the queue which the drain loop discards
  /// without running it or counting it toward events_processed()/budget.
  bool cancel(CancelToken token);

  std::uint64_t events_cancelled() const { return cancelled_; }

  /// Schedules `fn` `delay` after the current time (delay >= 0).
  void schedule_in(Tick delay, EventFn&& fn) {
    push_event(now_ + delay, now_, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` at the current time, after already-queued events for
  /// this instant.
  void schedule_now(EventFn&& fn) {
    push_event(now_, now_, next_seq_++, std::move(fn));
  }

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
  std::uint32_t alloc_slot(EventFn&& fn);
  /// The as-of entry points' extra preconditions; ordinary scheduling
  /// creates at now() <= t, which push_event's own check already covers.
  void check_as_of(Tick created, std::uint64_t place, Tick t) const {
    ACTNET_CHECK_MSG(created <= t,
                     "event created at " << created << " after its tick " << t);
    ACTNET_CHECK_MSG(place < next_seq_, "place " << place << " not yet taken");
  }
  EventKey push_event(Tick t, Tick created, std::uint64_t seq, EventFn&& fn);
  /// The shared drain loop behind run()/run_until(): one dispatch, budget
  /// check, and events_processed() accounting for both; a bounded drain
  /// ends at now() == limit.
  std::uint64_t drain(Tick limit, bool bounded);

  std::vector<EventKey> heap_;   ///< 4-ary min-heap of pending keys
  /// Out-of-line callables. Its size is the queue's high-water mark: a
  /// slot stays held by one queued key until that key pops, and the
  /// vector grows only when no slot is free.
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Generation of each slot: bumped when an event takes the slot and
  /// again when it fires or is cancelled, so only the token of the event
  /// occupying the slot matches it.
  std::vector<std::uint64_t> slot_gen_;
  /// The key current() reports outside an event callback.
  static EventKey idle_key(Tick now) { return EventKey{now, ~0ull, 0, 0}; }
  EventKey current_ = idle_key(0);
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t places_ = 0;  ///< places taken; the rest of next_seq_ are events
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t budget_ = 0;
};

}  // namespace actnet::sim
