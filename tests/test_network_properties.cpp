// Network-wide property tests: conservation, monotonicity, fairness and
// determinism swept over seeds, loads, and topologies.
#include <gtest/gtest.h>

#include <tuple>

#include "net/network.h"
#include "util/stats.h"

namespace actnet::net {
namespace {

// --- conservation: every message sent is delivered exactly once ---------

class Conservation
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};
// Param: (pods, messages, seed)

TEST_P(Conservation, SentEqualsDelivered) {
  const auto [pods, messages, seed] = GetParam();
  sim::Engine e;
  NetworkConfig cfg = NetworkConfig::cab_like();
  cfg.nodes = 36;
  cfg.pods = pods;
  Network net(e, cfg, Rng(seed));
  Rng traffic(seed * 7 + 1);
  int delivered = 0;
  int injected_cb = 0;
  int posted = 0;
  Tick t = 0;
  for (int i = 0; i < messages; ++i) {
    t += traffic.uniform_int(0, 5000);
    const auto src = static_cast<NodeId>(traffic.uniform_int(0, 35));
    const auto dst = static_cast<NodeId>(traffic.uniform_int(0, 35));
    const Bytes size = 1 + traffic.uniform_int(0, units::KiB(60));
    const auto flow = static_cast<FlowId>(traffic.uniform_int(1, 200));
    e.schedule_at(t, [&net, &delivered, &injected_cb, &posted, src, dst,
                      size, flow] {
      net.send(src, dst, flow, size, [&injected_cb] { ++injected_cb; },
               [&delivered] { ++delivered; });
      ++posted;
    });
  }
  e.run();
  EXPECT_EQ(posted, messages);
  EXPECT_EQ(injected_cb, messages);
  EXPECT_EQ(delivered, messages);
  EXPECT_EQ(net.counters().messages_sent,
            static_cast<std::uint64_t>(messages));
  EXPECT_EQ(net.counters().messages_delivered,
            static_cast<std::uint64_t>(messages));
  EXPECT_EQ(net.in_flight_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conservation,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(200, 1000),
                       ::testing::Values(1u, 42u, 1337u)));

// --- latency grows monotonically with background load -------------------

TEST(NetworkProperties, ProbeLatencyMonotoneInBackgroundLoad) {
  auto probe_latency = [](int background_senders) {
    sim::Engine e;
    Network net(e, NetworkConfig::cab_like(), Rng(5));
    // Background: `background_senders` nodes saturate node 0's downlink.
    std::function<void(NodeId, FlowId)> refill = [&](NodeId src, FlowId f) {
      net.send(src, 0, f, units::KiB(40), nullptr, [&, src, f] {
        if (e.now() < units::ms(4)) refill(src, f);
      });
    };
    for (int s = 0; s < background_senders; ++s)
      refill(static_cast<NodeId>(2 + s), static_cast<FlowId>(100 + s));
    // Probes from node 1 to node 0 every 100 us.
    OnlineStats lat;
    for (int i = 0; i < 30; ++i) {
      e.schedule_at(units::us(200 + i * 100), [&] {
        const Tick sent = e.now();
        net.send(1, 0, 7, 1088, nullptr, [&, sent] {
          lat.add(units::to_us(e.now() - sent));
        });
      });
    }
    e.run();
    return lat.mean();
  };
  const double idle = probe_latency(0);
  const double light = probe_latency(2);
  const double heavy = probe_latency(10);
  EXPECT_LT(idle, light);
  EXPECT_LT(light, heavy);
}

// --- fairness: long-run throughput shares are near-equal ----------------

TEST(NetworkProperties, CompetingFlowsGetEqualLongRunShares) {
  sim::Engine e;
  Network net(e, NetworkConfig::cab_like(), Rng(6));
  // Four flows from distinct sources saturate node 0's downlink for 5 ms.
  std::vector<int> delivered(4, 0);
  std::function<void(int)> refill = [&](int f) {
    net.send(static_cast<NodeId>(1 + f), 0, static_cast<FlowId>(10 + f),
             units::KiB(16), nullptr, [&, f] {
               ++delivered[f];
               if (e.now() < units::ms(5)) refill(f);
             });
  };
  for (int f = 0; f < 4; ++f) refill(f);
  e.run();
  const auto [lo, hi] = std::minmax_element(delivered.begin(),
                                            delivered.end());
  EXPECT_GT(*lo, 0);
  EXPECT_LT(static_cast<double>(*hi) / *lo, 1.15)
      << "shares: " << delivered[0] << "," << delivered[1] << ","
      << delivered[2] << "," << delivered[3];
}

// --- determinism across identical runs, sensitivity to seed -------------

TEST(NetworkProperties, IdenticalSeedsGiveIdenticalTraffic) {
  auto fingerprint = [](std::uint64_t seed) {
    sim::Engine e;
    Network net(e, NetworkConfig::cab_like(), Rng(seed));
    Tick last_delivery = 0;
    for (int i = 0; i < 500; ++i)
      net.send(i % 18, (i + 1 + i % 5) % 18, 1 + i % 30, 1 + (i * 997) % 9000,
               nullptr, [&] { last_delivery = e.now(); });
    e.run();
    return std::pair(last_delivery, net.packet_latency().sum());
  };
  const auto a = fingerprint(9);
  const auto b = fingerprint(9);
  const auto c = fingerprint(10);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.second, c.second);  // switch jitter differs by seed
}

// --- aggregate throughput respects link capacity -------------------------

TEST(NetworkProperties, DownlinkThroughputCapped) {
  sim::Engine e;
  Network net(e, NetworkConfig::cab_like(), Rng(7));
  // 17 senders push 2 MB each to node 0: 34 MB through one 5 GB/s port.
  Bytes received = 0;
  for (NodeId s = 1; s < 18; ++s)
    for (int m = 0; m < 50; ++m)
      net.send(s, 0, static_cast<FlowId>(s), units::KiB(40), nullptr,
               [&] { received += units::KiB(40); });
  e.run();
  const double seconds = units::to_sec(e.now());
  const double goodput = static_cast<double>(received) / seconds;
  EXPECT_GT(goodput, units::GBps(4.0));  // port well utilized
  EXPECT_LT(goodput, units::GBps(5.1));  // never exceeds capacity
}

// --- packet latency floor is respected under all loads -------------------

TEST(NetworkProperties, NoPacketFasterThanHardwareFloor) {
  sim::Engine e;
  Network net(e, NetworkConfig::cab_like(), Rng(8));
  for (int i = 0; i < 2000; ++i)
    net.send(i % 18, (i + 7) % 18, 1 + i % 40, 1 + (i * 31) % 4096, nullptr,
             nullptr);
  e.run();
  // Floor: routing latency + 2x propagation + recv overhead + >=1 ns
  // serialization each way.
  EXPECT_GT(net.packet_latency().min(), 500u);  // ns
}

}  // namespace
}  // namespace actnet::net
