// Switch models: routing-stage delays, counters, shared-queue FIFO
// behaviour, and agreement of the shared-queue switch with M/G/1 analytics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/switch.h"
#include "queueing/mg1.h"
#include "util/stats.h"

namespace actnet::net {
namespace {

Packet make_packet(std::uint64_t id, Bytes size = 1024) {
  Packet p;
  p.msg_id = id;
  p.src = 0;
  p.dst = 1;
  p.size = size;
  return p;
}

/// Packet `i` of a 1000-packet message series on flow 1: distinct
/// (message ordinal, seq) keys, so its stage delays are independent draws.
Packet keyed_packet(int i) {
  Packet p = make_packet((static_cast<MessageId>(1 + i / 1000) << 32) | 7);
  p.flow = 1;
  p.seq = static_cast<std::uint32_t>(i % 1000);
  return p;
}

TEST(OutputQueuedSwitch, DelayWithinConfiguredEnvelope) {
  sim::Engine e;
  OutputQueuedConfig cfg;
  cfg.routing_latency = 150;
  cfg.jitter_mean_ns = 200.0;
  cfg.jitter_stddev_ns = 100.0;
  cfg.tail_prob = 0.0;
  OutputQueuedSwitch sw(e, cfg, 1);
  OnlineStats stage;
  for (int i = 0; i < 20000; ++i)
    stage.add(static_cast<double>(sw.flowfwd_delay(keyed_packet(i))));
  EXPECT_GT(stage.min(), 150.0);
  EXPECT_NEAR(stage.mean(), 350.0, 10.0);
}

TEST(OutputQueuedSwitch, TailAddsRareLargeDelays) {
  sim::Engine e;
  OutputQueuedConfig cfg;
  cfg.tail_prob = 0.05;
  cfg.tail_offset_ns = 1000.0;
  cfg.tail_mean_excess_ns = 2000.0;
  OutputQueuedSwitch sw(e, cfg, 2);
  int slow = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (sw.flowfwd_delay(keyed_packet(i)) > units::ns(1200)) ++slow;
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.05, 0.01);
}

TEST(OutputQueuedSwitch, DelayIsPureFunctionOfKeyAndPacket) {
  // Draw order, in-flight slot (the id's low bits) and prior traffic do
  // not move a packet's delay; the switch key and the packet's
  // (flow, ordinal, seq) do.
  sim::Engine e;
  const OutputQueuedConfig cfg;
  OutputQueuedSwitch fwd(e, cfg, 11);
  OutputQueuedSwitch rev(e, cfg, 11);
  OutputQueuedSwitch other(e, cfg, 12);
  const int n = 200;
  std::vector<Tick> a(n), b(n);
  int differs = 0;
  for (int i = 0; i < n; ++i) a[i] = fwd.flowfwd_delay(keyed_packet(i));
  for (int i = n - 1; i >= 0; --i) {
    Packet p = keyed_packet(i);
    p.msg_id ^= 0x5a5a;  // another slot
    b[i] = rev.flowfwd_delay(p);
    if (other.flowfwd_delay(p) != b[i]) ++differs;
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(differs, n / 2);
  EXPECT_EQ(fwd.counters().packets, rev.counters().packets);
  EXPECT_EQ(fwd.counters().time_in_switch, rev.counters().time_in_switch);
}

/// The stage delay as drawn before its log-normal parameters were cached:
/// the moments are converted on every draw.
Tick moments_form_delay(const OutputQueuedConfig& config,
                        std::uint64_t switch_key, std::uint64_t msg,
                        const Packet& p) {
  Rng rng(mix64(mix64(mix64(switch_key ^ p.flow) ^ msg) ^ p.seq));
  Tick d = config.routing_latency;
  if (config.jitter_mean_ns > 0.0)
    d += units::ns(rng.lognormal_by_moments(config.jitter_mean_ns,
                                            config.jitter_stddev_ns));
  if (config.tail_prob > 0.0 && rng.chance(config.tail_prob))
    d += units::ns(config.tail_offset_ns +
                   rng.exponential(config.tail_mean_excess_ns));
  return d;
}

TEST(OutputQueuedSwitch, CachedJitterParametersDrawBitIdentically) {
  // The switch converts its jitter moments once; every draw must equal
  // the per-draw conversion bit for bit, on the default stage, a
  // high-variance one, a constant-jitter one and a jitter-free one.
  std::vector<OutputQueuedConfig> configs(4);
  configs[1].jitter_mean_ns = 37.5;
  configs[1].jitter_stddev_ns = 400.0;
  configs[1].tail_prob = 0.3;
  configs[2].jitter_stddev_ns = 0.0;
  configs[3].jitter_mean_ns = 0.0;
  for (const OutputQueuedConfig& cfg : configs) {
    const KeyedStage stage(cfg);
    SwitchCounters cached, converted;
    int tails = 0;
    for (std::uint64_t key = 0; key < 40; ++key)
      for (int i = 0; i < 500; ++i) {
        Packet p = keyed_packet(i);
        p.flow = static_cast<std::uint32_t>(key * 7 + 1);
        const std::uint64_t sw_key = mix64(key);
        const std::uint64_t msg = 1 + static_cast<std::uint64_t>(i % 13);
        const Tick want = moments_form_delay(cfg, sw_key, msg, p);
        ASSERT_EQ(keyed_stage_delay(stage, sw_key, msg, p, cached), want);
        ASSERT_EQ(keyed_stage_delay(cfg, sw_key, msg, p, converted), want);
        if (want > cfg.routing_latency + units::ns(cfg.tail_offset_ns))
          ++tails;
      }
    EXPECT_EQ(cached.time_in_switch, converted.time_in_switch);
    EXPECT_EQ(cached.packets, 40u * 500u);
    if (cfg.tail_prob > 0.1) {
      EXPECT_GT(tails, 0);
    }
  }
}

TEST(OutputQueuedSwitch, RouteForwardsOnceWithDelay) {
  sim::Engine e;
  OutputQueuedConfig cfg;
  cfg.jitter_mean_ns = 0.0;
  cfg.jitter_stddev_ns = 0.0;
  cfg.tail_prob = 0.0;
  cfg.routing_latency = 150;
  OutputQueuedSwitch sw(e, cfg, 3);
  int forwarded = 0;
  Tick when = -1;
  // Routed at the upstream serialization end (t=0), arriving 40 ticks
  // later: the exit is arrival + stage delay, returned and scheduled.
  const Tick exit = sw.route(make_packet(1), 40, [&](const Packet& p) {
    ++forwarded;
    when = e.now();
    EXPECT_EQ(p.msg_id, 1u);
  });
  e.run();
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(exit, 190);
  EXPECT_EQ(when, 190);
  EXPECT_EQ(sw.counters().packets, 1u);
  EXPECT_EQ(sw.counters().bytes, 1024);
}

TEST(OutputQueuedSwitch, StageIsParallelNotSerial) {
  // Two packets entering together both leave after one routing delay —
  // the pipeline stage does not serialize (ports do, in the Network).
  sim::Engine e;
  OutputQueuedConfig cfg;
  cfg.jitter_mean_ns = 0.0;
  cfg.jitter_stddev_ns = 0.0;
  cfg.tail_prob = 0.0;
  cfg.routing_latency = 200;
  OutputQueuedSwitch sw(e, cfg, 4);
  std::vector<Tick> out;
  sw.route(make_packet(1), 0, [&](const Packet&) { out.push_back(e.now()); });
  sw.route(make_packet(2), 0, [&](const Packet&) { out.push_back(e.now()); });
  e.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 200);
  EXPECT_EQ(out[1], 200);
}

TEST(SharedQueueSwitch, FifoSingleServer) {
  sim::Engine e;
  auto service = std::make_shared<queueing::Deterministic>(100.0);
  SharedQueueSwitch sw(e, service, Rng(5));
  std::vector<Tick> out;
  for (int i = 0; i < 3; ++i)
    sw.route(make_packet(i), 0, [&](const Packet&) { out.push_back(e.now()); });
  e.run();
  // Serial service: 100, 200, 300.
  EXPECT_EQ(out, (std::vector<Tick>{100, 200, 300}));
  EXPECT_EQ(sw.counters().packets, 3u);
}

TEST(SharedQueueSwitch, ServiceStartsAtArrivalInCallOrder) {
  // Routed at serialization end, before the packets arrive: the server
  // starts each at max(arrival, busy until), in call order.
  sim::Engine e;
  auto service = std::make_shared<queueing::Deterministic>(100.0);
  SharedQueueSwitch sw(e, service, Rng(5));
  std::vector<Tick> out;
  EXPECT_EQ(sw.route(make_packet(0), 50,
                     [&](const Packet&) { out.push_back(e.now()); }),
            150);
  EXPECT_EQ(sw.route(make_packet(1), 70,
                     [&](const Packet&) { out.push_back(e.now()); }),
            250);
  EXPECT_EQ(sw.route(make_packet(2), 400,
                     [&](const Packet&) { out.push_back(e.now()); }),
            500);
  e.run();
  EXPECT_EQ(out, (std::vector<Tick>{150, 250, 500}));
  // Time in switch runs from arrival: 100 + 180 + 100.
  EXPECT_EQ(sw.counters().time_in_switch, 380);
}

TEST(SharedQueueSwitch, MatchesMg1Analytics) {
  // Poisson packet arrivals into the shared-queue switch reproduce the
  // P-K sojourn time — the end-to-end validation of the queue-theoretic
  // machinery on the actual switch component.
  sim::Engine e;
  const double mean_ns = 600.0, stddev_ns = 250.0;
  auto service = std::make_shared<queueing::LogNormal>(mean_ns, stddev_ns);
  SharedQueueSwitch sw(e, service, Rng(6));
  const double rho = 0.7;
  const double lambda_per_ns = rho / mean_ns;
  Rng arrivals(7);
  OnlineStats sojourn;
  Tick t = 0;
  const int kJobs = 200000, kWarmup = 10000;
  for (int i = 0; i < kJobs; ++i) {
    t += std::max<Tick>(1, static_cast<Tick>(
                               arrivals.exponential(1.0 / lambda_per_ns)));
    const Tick arrive = t;
    const bool counted = i >= kWarmup;
    e.schedule_at(arrive, [&, arrive, counted] {
      sw.route(make_packet(0), arrive, [&, arrive, counted](const Packet&) {
        if (counted)
          sojourn.add(static_cast<double>(e.now() - arrive));
      });
    });
  }
  e.run();
  const queueing::Mg1Params p{1.0 / mean_ns, stddev_ns * stddev_ns};
  const double analytic = queueing::pk_mean_sojourn(lambda_per_ns, p);
  EXPECT_NEAR(sojourn.mean(), analytic, 0.08 * analytic);
}

}  // namespace
}  // namespace actnet::net
