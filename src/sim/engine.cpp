#include "sim/engine.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace actnet::sim {

Engine::Engine() {
  if (obs::enabled()) attach_metrics(obs::default_registry());
}

void Engine::attach_metrics(obs::Registry& r) {
  m_scheduled_ = &r.counter("sim.engine.events_scheduled");
  m_executed_ = &r.counter("sim.engine.events_executed");
  m_heap_peak_ = &r.gauge("sim.engine.heap_peak");
  m_slots_peak_ = &r.gauge("sim.engine.slots_peak");
  obs::Counter* executed = m_executed_;
  r.callback_gauge("sim.engine.heap_allocs_per_event", [executed] {
    const auto ev = executed->value();
    return ev > 0 ? static_cast<double>(inline_fn_heap_allocations()) /
                        static_cast<double>(ev)
                  : 0.0;
  });
}

bool Engine::next_event_time(Tick* t) const {
  if (heap_.empty()) return false;
  *t = heap_.front().t;
  return true;
}

std::uint32_t Engine::alloc_slot(EventFn&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s] = std::move(fn);
    return s;
  }
  slots_.push_back(std::move(fn));
  slot_seq_.push_back(kDeadSeq);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventKey Engine::push_event(Tick t, EventFn&& fn) {
  ACTNET_CHECK_MSG(t >= now_, "event scheduled in the past: t=" << t
                                                                << " now=" << now_);
  ACTNET_CHECK(fn);
  const EventKey k{t, next_seq_++, alloc_slot(std::move(fn))};
  slot_seq_[k.slot] = k.seq;
  detail::heap_push(heap_, k);
  if (m_scheduled_ != nullptr) {
    m_scheduled_->inc();
    m_heap_peak_->max(static_cast<double>(pending()));
    m_slots_peak_->max(static_cast<double>(slots_.size()));
  }
  return k;
}

Engine::CancelToken Engine::schedule_cancellable_at(Tick t, EventFn&& fn) {
  const EventKey k = push_event(t, std::move(fn));
  return CancelToken{k.slot, k.seq};
}

bool Engine::cancel(CancelToken token) {
  if (!token.valid() || token.slot >= slot_seq_.size()) return false;
  if (slot_seq_[token.slot] != token.seq) return false;  // fired or reused
  // Tombstone: the key stays queued but its callable is emptied; drain
  // discards it for free. The slot is reclaimed when the key pops.
  slots_[token.slot] = EventFn{};
  slot_seq_[token.slot] = kDeadSeq;
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
    slot_seq_[k.slot] = kDeadSeq;
    if (!fn) continue;  // cancelled tombstone
    ++processed_;
    ++n;
    fn();
    ACTNET_CHECK_MSG(budget_ == 0 || n <= budget_,
                     "event budget exhausted (" << budget_ << ")");
  }
  if (m_executed_ != nullptr) m_executed_->inc(n);
  return n;
}

std::uint64_t Engine::run() { return drain(0, /*bounded=*/false); }

std::uint64_t Engine::run_until(Tick t) {
  ACTNET_CHECK(t >= now_);
  const std::uint64_t n = drain(t, /*bounded=*/true);
  now_ = t;
  return n;
}

}  // namespace actnet::sim
