#include "sim/partition.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/error.h"

namespace actnet::sim {

namespace {

/// Bounded spin before parking on the futex: windows are short (one
/// lookahead of simulated time), so on a multicore host the other side is
/// usually only a few hundred nanoseconds away; on an oversubscribed or
/// single-core host the atomic wait keeps the loop from burning the quantum.
template <typename Atomic, typename Pred>
void spin_then_wait(Atomic& a, Pred ready) {
  for (int i = 0; i < 1024; ++i)
    if (ready(a.load(std::memory_order_acquire))) return;
  for (;;) {
    const auto v = a.load(std::memory_order_acquire);
    if (ready(v)) return;
    a.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

PartitionedEngine::PartitionedEngine(int domains, Tick lookahead, int workers)
    : lookahead_(lookahead),
      workers_(resolve_workers(domains, workers)),
      stats_(static_cast<std::size_t>(domains)),
      outboxes_(static_cast<std::size_t>(domains)) {
  ACTNET_CHECK_MSG(domains >= 1, "PartitionedEngine needs >= 1 domain");
  ACTNET_CHECK_MSG(lookahead_ >= 1,
                   "conservative lookahead must be >= 1 tick, got "
                       << lookahead_);
  domains_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d)
    domains_.push_back(std::make_unique<Engine>());
  if (obs::enabled()) attach_metrics(obs::default_registry());
}

int PartitionedEngine::resolve_workers(int domains, int workers) {
  if (workers <= 0) workers = workers_from_env(domains);
  return std::max(1, std::min(workers, std::max(1, domains)));
}

PartitionedEngine::~PartitionedEngine() {
  if (!threads_.empty()) {
    shutdown_.store(true, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void PartitionedEngine::attach_metrics(obs::Registry& r) {
  m_windows_ = &r.counter("sim.partition.windows");
  m_stalls_ = &r.counter("sim.partition.barrier_stalls");
  m_messages_ = &r.counter("sim.partition.messages");
}

int PartitionedEngine::workers_from_env(int domains) {
  const std::string v = util::env_string("ACTNET_PARTITIONS");
  if (v.empty()) return 1;
  int n;
  if (v == "auto") {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  } else {
    n = util::parse_count("ACTNET_PARTITIONS", v);
    ACTNET_CHECK_MSG(n >= 1, "ACTNET_PARTITIONS must be a positive integer "
                             "or 'auto', got '"
                                 << v << "'");
  }
  return std::max(1, std::min(n, domains));
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

void PartitionedEngine::start_workers() {
  if (workers_ <= 1 || !threads_.empty()) return;
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

void PartitionedEngine::run_domains(int w, Tick wend) {
  for (int d = w; d < domains(); d += workers_) {
    Engine& e = *domains_[static_cast<std::size_t>(d)];
    const std::uint64_t before = e.events_processed();
    e.run_until(wend);
    DomainStats& s = stats_[static_cast<std::size_t>(d)];
    if (e.events_processed() > before)
      ++s.windows;
    else
      ++s.barrier_stalls;
  }
}

void PartitionedEngine::worker_loop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    spin_then_wait(phase_, [&](std::uint64_t p) { return p != seen; });
    seen = phase_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_relaxed)) return;
    record_error([&] { run_domains(w, window_end_); });
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

template <typename Fn>
void PartitionedEngine::record_error(Fn&& fn) {
  try {
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(err_mu_);
    if (!err_) err_ = std::current_exception();
  }
}

std::uint64_t PartitionedEngine::execute_window(Tick wend) {
  std::uint64_t before = 0;
  for (const auto& d : domains_) before += d->events_processed();
  if (workers_ <= 1) {
    run_domains(0, wend);
  } else {
    start_workers();
    window_end_ = wend;
    done_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    record_error([&] { run_domains(0, wend); });
    const auto all = static_cast<std::uint32_t>(workers_ - 1);
    spin_then_wait(done_, [all](std::uint32_t d) { return d == all; });
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(err_mu_);
      err = std::exchange(err_, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }
  std::uint64_t after = 0;
  for (const auto& d : domains_) after += d->events_processed();
  return after - before;
}

void PartitionedEngine::drain_channels() {
  // Single-threaded, fixed order: source domains ascending, post order
  // within each. Same-timestamp messages therefore receive destination
  // engine sequence numbers in an order that depends only on WHAT was
  // posted (each source's post order is its own deterministic event
  // order), never on which worker ran which domain — the property the
  // byte-identity tests pin.
  for (std::size_t src = 0; src < outboxes_.size(); ++src) {
    std::vector<Channel>& box = outboxes_[src];
    for (Channel& c : box) {
      domains_[static_cast<std::size_t>(c.dst)]->schedule_at(c.t,
                                                             std::move(c.fn));
      ++stats_[static_cast<std::size_t>(c.dst)].messages_in;
    }
    if (m_messages_ != nullptr && !box.empty())
      m_messages_->inc(static_cast<std::uint64_t>(box.size()));
    box.clear();
  }
}

std::uint64_t PartitionedEngine::run_until(Tick t) {
  ACTNET_CHECK_MSG(t >= now_, "run_until into the past: t=" << t << " now="
                                                            << now_);
  // Seeding posts made outside any window (initial setup, or between
  // run_until calls) are still sitting in the outboxes; deliver them now so
  // they participate in window placement — otherwise the first window could
  // run past their timestamps before they ever reach an engine.
  drain_channels();
  std::uint64_t ran = 0;
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
    const std::uint64_t delta = execute_window(wend);
    ran += delta;
    if (m_windows_ != nullptr) {
      m_windows_->inc();
      if (delta == 0) m_stalls_->inc();
    }
    drain_channels();
  }
  // No events <= t remain anywhere; advance every clock to t so follow-up
  // scheduling (and the next run_until) sees a consistent global now.
  for (const auto& d : domains_) d->run_until(t);
  now_ = t;
  if (safe_time_ < t + 1) safe_time_ = t + 1;
  return ran;
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
