#include "sim/partition.h"

#include <utility>

#include "obs/metrics.h"
#include "util/error.h"

namespace actnet::sim {

PartitionedEngine::PartitionedEngine(int domains, Tick lookahead)
    : lookahead_(lookahead),
      stats_(static_cast<std::size_t>(domains)),
      outboxes_(static_cast<std::size_t>(domains)) {
  ACTNET_CHECK_MSG(domains >= 1, "PartitionedEngine needs >= 1 domain");
  ACTNET_CHECK_MSG(lookahead_ >= 1,
                   "conservative lookahead must be >= 1 tick, got "
                       << lookahead_);
  domains_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d)
    domains_.push_back(std::make_unique<Engine>());
}

PartitionedEngine::~PartitionedEngine() {
  obs::Registry& r = obs::default_registry();
  static obs::Counter& windows = r.counter("sim.partition.windows");
  static obs::Counter& stalls = r.counter("sim.partition.barrier_stalls");
  static obs::Counter& messages = r.counter("sim.partition.messages");
  const DomainStats t = total_stats();
  windows.inc(t.windows);
  stalls.inc(t.barrier_stalls);
  messages.inc(t.messages_in);
}

void PartitionedEngine::post(int src, int dst, Tick t, EventFn fn) {
  ACTNET_CHECK(src >= 0 && src < domains());
  ACTNET_CHECK(dst >= 0 && dst < domains());
  ACTNET_CHECK(fn);
  // The lookahead invariant: a message below the safe horizon could name a
  // time its destination has already executed past (or will, later in this
  // same window) — the model's cross-domain latency is smaller than the
  // lookahead it declared.
  ACTNET_CHECK_MSG(
      t >= safe_time_,
      "cross-partition message violates the lookahead invariant: t="
          << t << " < safe_time=" << safe_time_ << " (src=" << src
          << " dst=" << dst << ", lookahead=" << lookahead_ << ")");
  ++stats_[static_cast<std::size_t>(src)].messages_out;
  outboxes_[static_cast<std::size_t>(src)].push_back(
      Channel{t, dst, std::move(fn)});
}

void PartitionedEngine::execute_window(Tick wend) {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    Engine& e = *domains_[d];
    const std::uint64_t before = e.events_processed();
    e.run_until(wend);
    if (e.events_processed() > before)
      ++stats_[d].windows;
    else
      ++stats_[d].barrier_stalls;
  }
}

void PartitionedEngine::drain_channels() {
  // Fixed order: source domains ascending, post order within each.
  // Same-timestamp messages therefore receive destination engine sequence
  // numbers in an order that depends only on WHAT was posted (each
  // source's post order is its own deterministic event order) — the
  // property the identity tests pin.
  for (std::vector<Channel>& box : outboxes_) {
    for (Channel& c : box) {
      domains_[static_cast<std::size_t>(c.dst)]->schedule_at(c.t,
                                                             std::move(c.fn));
      ++stats_[static_cast<std::size_t>(c.dst)].messages_in;
    }
    box.clear();
  }
}

std::uint64_t PartitionedEngine::run_until(Tick t) {
  ACTNET_CHECK_MSG(t >= now_, "run_until into the past: t=" << t << " now="
                                                            << now_);
  const std::uint64_t before = events_processed();
  // Seeding posts made outside any window (initial setup, or between
  // run_until calls) are still sitting in the outboxes; deliver them now so
  // they participate in window placement — otherwise the first window could
  // run past their timestamps before they ever reach an engine.
  drain_channels();
  for (;;) {
    Tick wstart = 0;
    bool any = false;
    for (const auto& d : domains_) {
      Tick dt;
      if (d->next_event_time(&dt) && (!any || dt < wstart)) {
        wstart = dt;
        any = true;
      }
    }
    if (!any || wstart > t) break;
    Tick wend = wstart + (lookahead_ - 1);
    if (wend > t) wend = t;
    safe_time_ = wend + 1;
    execute_window(wend);
    drain_channels();
  }
  // No events <= t remain anywhere; advance every clock to t so follow-up
  // scheduling (and the next run_until) sees a consistent global now.
  for (const auto& d : domains_) d->run_until(t);
  now_ = t;
  if (safe_time_ < t + 1) safe_time_ = t + 1;
  return events_processed() - before;
}

std::uint64_t PartitionedEngine::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& d : domains_) n += d->events_processed();
  return n;
}

PartitionedEngine::DomainStats PartitionedEngine::total_stats() const {
  DomainStats t;
  for (const DomainStats& s : stats_) {
    t.windows += s.windows;
    t.barrier_stalls += s.barrier_stalls;
    t.messages_out += s.messages_out;
    t.messages_in += s.messages_in;
  }
  return t;
}

}  // namespace actnet::sim
