#include "net/switch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/error.h"

namespace actnet::net {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

JitterTable::JitterTable(double mean_ns, double stddev_ns) {
  // The underlying normal's (mu, sigma) of a log-normal with this linear
  // mean and standard deviation.
  const double cv = stddev_ns / mean_ns;
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean_ns) - 0.5 * sigma2;
  const double sigma = std::sqrt(sigma2);
  const double scale = 1.0 / (sigma * std::sqrt(2.0));
  constexpr double kOne = 4294967296.0;  // 2^32
  // P(⌊X⌋ <= k) = P(X < k + 1) = Phi((ln(k + 1) - mu) / sigma). The running
  // max keeps the rounded CDF monotone whatever erfc's last bit does.
  std::uint64_t prev = 0;
  while (prev < std::uint64_t{1} << 32) {
    ACTNET_CHECK_MSG(cdf_.size() < kMaxEntries,
                     "switch jitter (mean " << mean_ns << " ns, stddev "
                         << stddev_ns << " ns) has a tail beyond "
                         << kMaxEntries << " ns");
    const double k1 = static_cast<double>(cdf_.size() + 1);
    const double p = 0.5 * std::erfc(-(std::log(k1) - mu) * scale);
    prev = std::max(prev, static_cast<std::uint64_t>(std::llround(p * kOne)));
    cdf_.push_back(prev);
  }
  std::uint32_t k = 0;
  for (std::uint32_t b = 0; b < (1u << kGuideBits); ++b) {
    const std::uint64_t u = std::uint64_t{b} << (32 - kGuideBits);
    while (cdf_[k] <= u) ++k;
    guide_[b] = k;
  }
  guide_.back() = static_cast<std::uint32_t>(cdf_.size() - 1);
}

const JitterTable& JitterTable::get(double mean_ns, double stddev_ns) {
  ACTNET_CHECK(mean_ns > 0.0);
  ACTNET_CHECK(stddev_ns > 0.0);
  static std::mutex mu;
  static std::map<std::pair<double, double>, std::unique_ptr<JitterTable>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<JitterTable>& t = tables[{mean_ns, stddev_ns}];
  if (t == nullptr) t.reset(new JitterTable(mean_ns, stddev_ns));
  return *t;
}

KeyedStage::KeyedStage(const OutputQueuedConfig& c)
    : config(c), fixed(c.routing_latency) {
  if (config.jitter_mean_ns <= 0.0) return;
  if (config.jitter_stddev_ns == 0.0)
    fixed += units::ns(config.jitter_mean_ns);
  else
    table = &JitterTable::get(config.jitter_mean_ns, config.jitter_stddev_ns);
}

Tick keyed_stage_delay(const KeyedStage& stage, std::uint64_t switch_key,
                       std::uint64_t msg, const Packet& p, SwitchCounters& c) {
  const OutputQueuedConfig& config = stage.config;
  Rng rng(mix64(mix64(mix64(switch_key ^ p.flow) ^ msg) ^ p.seq));
  Tick d = stage.fixed;
  if (stage.table != nullptr)
    d += stage.table->sample(static_cast<std::uint32_t>(rng() >> 32));
  if (config.tail_prob > 0.0 && rng.chance(config.tail_prob))
    d += units::ns(config.tail_offset_ns +
                   rng.exponential(config.tail_mean_excess_ns));
  c.credit(p.size, d);
  return d;
}

OutputQueuedSwitch::OutputQueuedSwitch(sim::Engine& engine,
                                       OutputQueuedConfig config,
                                       std::uint64_t key)
    : engine_(engine), stage_(config), key_(key) {
  ACTNET_CHECK(config.routing_latency >= 0);
  ACTNET_CHECK(config.jitter_mean_ns >= 0.0);
  ACTNET_CHECK(config.tail_prob >= 0.0 && config.tail_prob < 1.0);
}

Tick OutputQueuedSwitch::flowfwd_delay(const Packet& p) {
  return keyed_stage_delay(stage_, key_, msg_ordinal(p.msg_id), p, counters_);
}

Tick OutputQueuedSwitch::route(const Packet& p, Tick arrive_at,
                               ForwardFn forward) {
  ACTNET_CHECK(forward);
  ACTNET_CHECK(arrive_at >= engine_.now());
  const Tick exit = arrive_at + flowfwd_delay(p);
  // Park the record in the pool so the event closure stays inline.
  const std::uint32_t slot = pending_.put(PendingRoute{p, std::move(forward)});
  engine_.schedule_at(exit, [this, slot] {
    PendingRoute r = pending_.take(slot);
    r.fwd(r.p);
  });
  return exit;
}

Tick SharedQueueSwitch::flowfwd_delay(const Packet&) {
  ACTNET_CHECK_MSG(false,
                   "flowfwd_delay on a shared-queue switch: the M/G/1 model "
                   "couples packets through busy_until_ and cannot be "
                   "fast-forwarded");
}

SharedQueueSwitch::SharedQueueSwitch(
    sim::Engine& engine,
    std::shared_ptr<const queueing::ServiceDistribution> service, Rng rng)
    : engine_(engine), service_(std::move(service)), rng_(rng) {
  ACTNET_CHECK(service_ != nullptr);
}

Tick SharedQueueSwitch::route(const Packet& p, Tick arrive_at,
                              ForwardFn forward) {
  ACTNET_CHECK(forward);
  ACTNET_CHECK(arrive_at >= engine_.now());
  const Tick start = std::max(arrive_at, busy_until_);
  const Tick service =
      std::max<Tick>(1, static_cast<Tick>(service_->sample(rng_)));
  busy_until_ = start + service;
  counters_.credit(p.size, busy_until_ - arrive_at);
  const std::uint32_t slot = pending_.put(PendingRoute{p, std::move(forward)});
  engine_.schedule_at(busy_until_, [this, slot] {
    PendingRoute r = pending_.take(slot);
    r.fwd(r.p);
  });
  return busy_until_;
}

}  // namespace actnet::net
