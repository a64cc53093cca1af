// Awaitables connecting coroutine tasks to the event engine.
//
//  - Delay: resume after a simulated duration (compute, sleep, overheads).
//  - Event: one-shot completion signal with multiple waiters (request
//    completion, job termination). Waiters are resumed through the engine
//    queue, never inline, so resumption order is the deterministic
//    engine order.
#pragma once

#include <coroutine>
#include <vector>

#include "sim/engine.h"
#include "util/error.h"
#include "util/units.h"

namespace actnet::sim {

/// Awaitable that resumes the coroutine `delay` ticks later.
struct Delay {
  Engine& engine;
  Tick delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    ACTNET_CHECK(delay >= 0);
    engine.schedule_in(delay, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline Delay delay(Engine& engine, Tick d) { return Delay{engine, d}; }

/// One-shot event: tasks co_await it; fire() releases all of them (current
/// and future awaiters complete immediately once fired).
///
/// Nearly every event (an MPI request's completion) has exactly one waiter,
/// so the first waiter is held inline and only the second and later ones
/// go to a vector: waiting on a request allocates nothing.
///
/// Lifetime: the Event must outlive any suspended waiter that will be
/// resumed. Waiters whose coroutine frames are destroyed before the event
/// fires leave dangling handles behind, so events must either fire or never
/// be fired again once their waiters are torn down — the experiment driver
/// guarantees this by stopping the engine before tearing down tasks.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool fired() const { return fired_; }

  /// Fires the event; all waiters are scheduled for resumption "now".
  /// Idempotent.
  void fire() {
    if (fired_) return;
    fired_ = true;
    if (!first_) return;
    engine_.schedule_now([h = first_] { h.resume(); });
    first_ = {};
    for (auto h : more_) engine_.schedule_now([h] { h.resume(); });
    more_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.fired_; }
      void await_suspend(std::coroutine_handle<> h) { ev.add_waiter(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Registers an already-suspended coroutine: resumed immediately (through
  /// the engine queue) when the event has fired, otherwise when it fires.
  void subscribe(std::coroutine_handle<> h) {
    if (fired_) {
      engine_.schedule_now([h] { h.resume(); });
      return;
    }
    add_waiter(h);
  }

  std::size_t waiter_count() const {
    return (first_ ? 1 : 0) + more_.size();
  }

 private:
  void add_waiter(std::coroutine_handle<> h) {
    if (!first_)
      first_ = h;
    else
      more_.push_back(h);
  }

  Engine& engine_;
  bool fired_ = false;
  std::coroutine_handle<> first_;  ///< first waiter (resumed first)
  std::vector<std::coroutine_handle<>> more_;
};

}  // namespace actnet::sim
