#include "sim/engine.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace actnet::sim {

Engine::~Engine() {
  obs::Registry& r = obs::default_registry();
  static obs::Counter& scheduled = r.counter("sim.engine.events_scheduled");
  static obs::Counter& executed = r.counter("sim.engine.events_executed");
  static obs::Gauge& heap_peak = r.gauge("sim.engine.heap_peak");
  [[maybe_unused]] static obs::Gauge& allocs_per_event =
      r.callback_gauge("sim.engine.heap_allocs_per_event", [] {
        const auto ev = executed.value();
        return ev > 0 ? static_cast<double>(inline_fn_heap_allocations()) /
                            static_cast<double>(ev)
                      : 0.0;
      });
  scheduled.inc(next_seq_ - places_);
  executed.inc(processed_);
  heap_peak.max(static_cast<double>(slots_.size()));
}

bool Engine::next_event_time(Tick* t) const {
  if (heap_.empty()) return false;
  *t = heap_.front().t;
  return true;
}

std::uint32_t Engine::alloc_slot(EventFn&& fn) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
    slot_gen_.push_back(0);
  }
  const std::uint32_t s = free_slots_.back();
  free_slots_.pop_back();
  slots_[s] = std::move(fn);
  ++slot_gen_[s];
  return s;
}

EventKey Engine::push_event(Tick t, Tick created, std::uint64_t seq,
                            EventFn&& fn) {
  ACTNET_CHECK_MSG(t >= now_, "event scheduled in the past: t=" << t
                                                                << " now=" << now_);
  ACTNET_CHECK(fn);
  const EventKey k{t, seq, alloc_slot(std::move(fn)),
                   EventKey::lag_of(t, created)};
  detail::heap_push(heap_, k);
  return k;
}

Engine::CancelToken Engine::schedule_cancellable_at(Tick t, EventFn&& fn) {
  const EventKey k = push_event(t, now_, next_seq_++, std::move(fn));
  return CancelToken{k.slot, slot_gen_[k.slot]};
}

Engine::CancelToken Engine::schedule_cancellable_as_of(Tick created,
                                                       std::uint64_t place,
                                                       Tick t, EventFn&& fn) {
  check_as_of(created, place, t);
  const EventKey k = push_event(t, created, place, std::move(fn));
  return CancelToken{k.slot, slot_gen_[k.slot]};
}

Engine::Order Engine::order_vs_current(Tick t, Tick created) const {
  if (t != current_.t) return t < current_.t ? Order::kBefore : Order::kAfter;
  const std::uint32_t lag = EventKey::lag_of(t, created);
  if (lag != current_.lag)
    return lag > current_.lag ? Order::kBefore : Order::kAfter;
  return Order::kTie;
}

bool Engine::cancel(CancelToken token) {
  if (!token.valid() || token.slot >= slot_gen_.size()) return false;
  if (slot_gen_[token.slot] != token.gen) return false;  // fired or reused
  // Tombstone: the key stays queued but its callable is emptied; drain
  // discards it for free. The slot is reclaimed when the key pops.
  slots_[token.slot] = EventFn{};
  ++slot_gen_[token.slot];
  ++cancelled_;
  return true;
}

std::uint64_t Engine::drain(Tick limit, bool bounded) {
  // One profiler frame per drain call, not per event: the scope's two
  // clock reads amortize over the whole batch and stay off the event path.
  obs::ProfScope prof(obs::Subsystem::kEngine);
  std::uint64_t n = 0;
  while (true) {
    if (heap_.empty() || (bounded && heap_.front().t > limit)) break;
    const EventKey k = detail::heap_pop(heap_);
    now_ = k.t;
    // Move the callable out so it can schedule further events (and so the
    // slot is immediately reusable by them).
    EventFn fn = std::move(slots_[k.slot]);
    free_slots_.push_back(k.slot);
    if (!fn) continue;  // cancelled tombstone (its generation already moved)
    ++slot_gen_[k.slot];
    current_ = k;
    ++processed_;
    ++n;
    fn();
    ACTNET_CHECK_MSG(budget_ == 0 || n <= budget_,
                     "event budget exhausted (" << budget_ << ")");
  }
  if (bounded) now_ = limit;
  current_ = idle_key(now_);
  return n;
}

std::uint64_t Engine::run() { return drain(0, /*bounded=*/false); }

std::uint64_t Engine::run_until(Tick t) {
  ACTNET_CHECK(t >= now_);
  return drain(t, /*bounded=*/true);
}

}  // namespace actnet::sim
