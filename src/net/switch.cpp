#include "net/switch.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace actnet::net {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

KeyedStage::KeyedStage(const OutputQueuedConfig& c) : config(c) {
  if (config.jitter_mean_ns > 0.0 && config.jitter_stddev_ns != 0.0)
    jitter = Rng::lognormal_params(config.jitter_mean_ns,
                                   config.jitter_stddev_ns);
}

Tick keyed_stage_delay(const KeyedStage& stage, std::uint64_t switch_key,
                       std::uint64_t msg, const Packet& p, SwitchCounters& c) {
  const OutputQueuedConfig& config = stage.config;
  Rng rng(mix64(mix64(mix64(switch_key ^ p.flow) ^ msg) ^ p.seq));
  Tick d = config.routing_latency;
  // A zero stddev is a constant jitter with no draw, as in
  // Rng::lognormal_by_moments.
  if (config.jitter_mean_ns > 0.0)
    d += units::ns(config.jitter_stddev_ns == 0.0
                       ? config.jitter_mean_ns
                       : rng.lognormal(stage.jitter.mu, stage.jitter.sigma));
  if (config.tail_prob > 0.0 && rng.chance(config.tail_prob))
    d += units::ns(config.tail_offset_ns +
                   rng.exponential(config.tail_mean_excess_ns));
  c.credit(p.size, d);
  return d;
}

Tick keyed_stage_delay(const OutputQueuedConfig& config,
                       std::uint64_t switch_key, std::uint64_t msg,
                       const Packet& p, SwitchCounters& c) {
  return keyed_stage_delay(KeyedStage(config), switch_key, msg, p, c);
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
