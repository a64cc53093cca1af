// Switch models: routing-stage delays, counters, shared-queue FIFO
// behaviour, and agreement of the shared-queue switch with M/G/1 analytics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
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

/// The reference CDF of the stage jitter ⌊X⌋, X log-normal with linear
/// mean and stddev: round(2^32 · P(X < k + 1)) for k = 0.., kept monotone,
/// up to the first entry that reaches 2^32.
std::vector<std::uint64_t> reference_cdf(double mean, double stddev) {
  const Rng::LognormalParams lp = Rng::lognormal_params(mean, stddev);
  const double scale = 1.0 / (lp.sigma * std::sqrt(2.0));
  std::vector<std::uint64_t> cdf;
  std::uint64_t c = 0;
  for (std::uint64_t k = 0; c < (std::uint64_t{1} << 32); ++k) {
    const double p = 0.5 * std::erfc(
                               -(std::log(static_cast<double>(k + 1)) - lp.mu) *
                               scale);
    c = std::max(c, static_cast<std::uint64_t>(std::llround(p * 0x1p32)));
    cdf.push_back(c);
  }
  return cdf;
}

/// The jitter the reference CDF gives 32 random bits `u`, by binary search.
Tick reference_sample(const std::vector<std::uint64_t>& cdf, std::uint32_t u) {
  return std::upper_bound(cdf.begin(), cdf.end(), std::uint64_t{u}) -
         cdf.begin();
}

TEST(JitterTable, CdfIsMonotoneAndEndsAtTwoToThe32) {
  for (const auto& [mean, stddev] :
       std::vector<std::pair<double, double>>{{200.0, 120.0}, {37.5, 60.0}}) {
    const std::vector<std::uint64_t>& cdf =
        JitterTable::get(mean, stddev).cdf();
    ASSERT_FALSE(cdf.empty());
    EXPECT_TRUE(std::is_sorted(cdf.begin(), cdf.end()));
    EXPECT_EQ(cdf.back(), std::uint64_t{1} << 32);
    EXPECT_LT(cdf[cdf.size() - 2], std::uint64_t{1} << 32);  // ends at once
    EXPECT_EQ(cdf, reference_cdf(mean, stddev));
  }
  // The default 200/120 ns jitter: about 5,800 entries.
  const std::size_t n = JitterTable::get(200.0, 120.0).cdf().size();
  EXPECT_GT(n, 4000u);
  EXPECT_LT(n, 8000u);
}

TEST(JitterTable, SampleMatchesReferenceSearch) {
  // The guide-table lookup returns what a plain binary search over an
  // independently computed CDF returns: at every guide-bucket boundary and
  // its neighbours, at every CDF step, and at 10^6 random draws.
  for (const auto& [mean, stddev] :
       std::vector<std::pair<double, double>>{{200.0, 120.0}, {37.5, 60.0}}) {
    const JitterTable& table = JitterTable::get(mean, stddev);
    const std::vector<std::uint64_t> cdf = reference_cdf(mean, stddev);
    const auto check = [&](std::uint64_t u64) {
      const auto u = static_cast<std::uint32_t>(u64);
      ASSERT_EQ(table.sample(u), reference_sample(cdf, u)) << "u=" << u;
    };
    constexpr int kShift = 32 - JitterTable::kGuideBits;
    for (std::uint64_t b = 0; b <= (1u << JitterTable::kGuideBits); ++b) {
      const std::uint64_t edge = b << kShift;
      if (edge > 0) check(edge - 1);
      if (edge <= 0xffffffffu) check(edge);
      if (edge + 1 <= 0xffffffffu) check(edge + 1);
    }
    for (const std::uint64_t c : cdf) {
      if (c > 0) check(c - 1);
      if (c <= 0xffffffffu) check(c);
    }
    Rng rng(static_cast<std::uint64_t>(mean));
    for (int i = 0; i < 1'000'000; ++i) check(rng() >> 32);
  }
}

TEST(JitterTable, KeyedDrawsHaveTheTableMean) {
  // 10^6 keyed draws (no tail, no routing latency) average within three
  // standard errors of E[⌊X⌋], computed from the CDF; and E[⌊X⌋] and its
  // spread are those of the configured log-normal, less the flooring.
  OutputQueuedConfig cfg;
  cfg.routing_latency = 0;
  cfg.tail_prob = 0.0;
  const KeyedStage stage(cfg);
  ASSERT_NE(stage.table, nullptr);
  const std::vector<std::uint64_t>& cdf = stage.table->cdf();
  double mean = 0.0, second = 0.0;
  std::uint64_t below = 0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    const double pk = static_cast<double>(cdf[k] - below) * 0x1p-32;
    mean += pk * static_cast<double>(k);
    second += pk * static_cast<double>(k) * static_cast<double>(k);
    below = cdf[k];
  }
  const double var = second - mean * mean;
  EXPECT_GT(mean, cfg.jitter_mean_ns - 1.0);
  EXPECT_LE(mean, cfg.jitter_mean_ns);
  EXPECT_NEAR(std::sqrt(var), cfg.jitter_stddev_ns, 0.5);

  SwitchCounters c;
  constexpr int kDraws = 1'000'000;
  for (int i = 0; i < kDraws; ++i) {
    Packet p = keyed_packet(i % 1000);
    p.flow = static_cast<std::uint32_t>(1 + i / 1000);
    keyed_stage_delay(stage, 99, 1 + static_cast<std::uint64_t>(i % 7), p, c);
  }
  ASSERT_EQ(c.packets, static_cast<std::uint64_t>(kDraws));
  const double drawn = static_cast<double>(c.time_in_switch) / kDraws;
  EXPECT_NEAR(drawn, mean, 3.0 * std::sqrt(var / kDraws));
}

/// The stage delay of a configuration with no jitter draw (zero mean or
/// zero stddev), as it has always been drawn.
Tick undrawn_jitter_delay(const OutputQueuedConfig& config,
                          std::uint64_t switch_key, std::uint64_t msg,
                          const Packet& p) {
  Rng rng(mix64(mix64(mix64(switch_key ^ p.flow) ^ msg) ^ p.seq));
  Tick d = config.routing_latency;
  if (config.jitter_mean_ns > 0.0) d += units::ns(config.jitter_mean_ns);
  if (config.tail_prob > 0.0 && rng.chance(config.tail_prob))
    d += units::ns(config.tail_offset_ns +
                   rng.exponential(config.tail_mean_excess_ns));
  return d;
}

TEST(OutputQueuedSwitch, ConstantAndZeroJitterKeepTheirExactDelays) {
  // A zero stddev is a constant jitter and a zero mean no jitter: neither
  // has a table, and both draw their tails from the same keyed stream bits
  // as before, so every delay is unchanged.
  std::vector<OutputQueuedConfig> configs(2);
  configs[0].jitter_stddev_ns = 0.0;
  configs[1].jitter_mean_ns = 0.0;
  for (OutputQueuedConfig& cfg : configs) {
    cfg.tail_prob = 0.3;
    const KeyedStage stage(cfg);
    EXPECT_EQ(stage.table, nullptr);
    SwitchCounters counters;
    int tails = 0;
    for (std::uint64_t key = 0; key < 40; ++key)
      for (int i = 0; i < 500; ++i) {
        Packet p = keyed_packet(i);
        p.flow = static_cast<std::uint32_t>(key * 7 + 1);
        const std::uint64_t sw_key = mix64(key);
        const std::uint64_t msg = 1 + static_cast<std::uint64_t>(i % 13);
        const Tick want = undrawn_jitter_delay(cfg, sw_key, msg, p);
        ASSERT_EQ(keyed_stage_delay(stage, sw_key, msg, p, counters), want);
        if (want > stage.fixed) ++tails;
      }
    EXPECT_EQ(counters.packets, 40u * 500u);
    EXPECT_GT(tails, 0);
  }
}

/// The keyed draw as a full Rng stream: Rng(mix64(mix64(mix64(key ^
/// flow) ^ msg) ^ seq)), jitter from its first output when the stage has a
/// table, then the tail test and the tail's exponential excess.
Tick rng_stream_delay(const KeyedStage& stage, std::uint64_t key,
                      std::uint32_t flow, std::uint64_t msg,
                      std::uint32_t seq) {
  const OutputQueuedConfig& config = stage.config;
  Rng rng(mix64(mix64(mix64(key ^ flow) ^ msg) ^ seq));
  Tick d = stage.fixed;
  if (stage.table != nullptr)
    d += stage.table->sample(static_cast<std::uint32_t>(rng() >> 32));
  if (config.tail_prob > 0.0 && rng.chance(config.tail_prob))
    d += units::ns(config.tail_offset_ns +
                   rng.exponential(config.tail_mean_excess_ns));
  return d;
}

TEST(KeyedDraws, EqualTheFullRngStreamOnRandomPackets) {
  // The per-message prefix plus the two-output shortcut draw exactly what
  // a fresh Rng per packet draws, for a tabled, a constant and a zero
  // jitter, each with no tail, the default tail and a tail on half the
  // packets (so the exponential replay runs often).
  std::vector<OutputQueuedConfig> jitters(3);
  jitters[1].jitter_stddev_ns = 0.0;  // constant
  jitters[2].jitter_mean_ns = 0.0;    // none
  Rng rng(2024);
  for (const OutputQueuedConfig& jitter : jitters)
    for (const double tail_prob : {0.015, 0.0, 0.5}) {
      OutputQueuedConfig cfg = jitter;
      cfg.tail_prob = tail_prob;
      const KeyedStage stage(cfg);
      int tails = 0;
      for (int m = 0; m < 12000; ++m) {
        const std::uint64_t key = rng();
        const auto flow = static_cast<std::uint32_t>(rng());
        const std::uint64_t msg = rng() >> rng.uniform_int(0, 63);
        const KeyedDraws draws(stage, key, flow, msg);
        for (int k = 0; k < 10; ++k) {
          const auto seq = static_cast<std::uint32_t>(
              k < 5 ? k : rng.uniform_int(0, 0xffffffff));
          const Tick want = rng_stream_delay(stage, key, flow, msg, seq);
          ASSERT_EQ(draws.delay(seq), want)
              << "key " << key << " flow " << flow << " msg " << msg
              << " seq " << seq << " tail_prob " << tail_prob;
          if (want >= stage.fixed + units::ns(cfg.tail_offset_ns)) ++tails;
        }
      }
      if (tail_prob == 0.5) {
        EXPECT_GT(tails, 50000);
      } else if (tail_prob == 0.0 && stage.table == nullptr) {
        EXPECT_EQ(tails, 0);
      }
    }
}

TEST(JitterTable, ConcurrentSwitchesShareOneTablePerConfig) {
  // Eight threads build switches over the same and over different jitter
  // configurations at once; each configuration gets exactly one table.
  // Means not used elsewhere, so the first builds race here.
  const std::vector<std::pair<double, double>> jitters = {
      {211.25, 97.5}, {211.25, 98.5}, {305.5, 97.5}};
  constexpr int kThreads = 8;
  std::vector<std::vector<const JitterTable*>> seen(
      kThreads, std::vector<const JitterTable*>(jitters.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      sim::Engine e;
      for (std::size_t j = 0; j < jitters.size(); ++j) {
        const std::size_t pick = (j + static_cast<std::size_t>(t)) %
                                 jitters.size();
        OutputQueuedConfig cfg;
        cfg.jitter_mean_ns = jitters[pick].first;
        cfg.jitter_stddev_ns = jitters[pick].second;
        OutputQueuedSwitch sw(e, cfg, static_cast<std::uint64_t>(t));
        sw.flowfwd_delay(keyed_packet(t));
        seen[static_cast<std::size_t>(t)][pick] = KeyedStage(cfg).table;
      }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t j = 0; j < jitters.size(); ++j) {
    const JitterTable* table = seen[0][j];
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table, &JitterTable::get(jitters[j].first, jitters[j].second));
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][j], table);
    for (std::size_t other = 0; other < j; ++other)
      EXPECT_NE(seen[0][other], table);
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
