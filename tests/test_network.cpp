// Network: packetization, delivery callbacks, idle latency calibration,
// same-node channel, contention at shared ports, counters.
#include <gtest/gtest.h>

#include "net/network.h"
#include "util/stats.h"

namespace actnet::net {
namespace {

struct Fixture {
  sim::Engine engine;
  NetworkConfig config = NetworkConfig::cab_like();
  Network net{engine, config, Rng(1)};
};

TEST(Network, DeliversSinglePacketMessage) {
  Fixture f;
  bool injected = false, delivered = false;
  Tick t_inj = -1, t_del = -1;
  f.net.send(0, 1, /*flow=*/100, 1088,
             [&] { injected = true; t_inj = f.engine.now(); },
             [&] { delivered = true; t_del = f.engine.now(); });
  f.engine.run();
  EXPECT_TRUE(injected);
  EXPECT_TRUE(delivered);
  EXPECT_LT(t_inj, t_del);
  // Idle one-way 1 KB latency lands near the paper's ~1.25 us.
  EXPECT_GT(t_del, units::ns(800));
  EXPECT_LT(t_del, units::us(4));
  EXPECT_EQ(f.net.counters().messages_delivered, 1u);
  EXPECT_EQ(f.net.counters().packets_delivered, 1u);
}

TEST(Network, MultiPacketMessagePacketization) {
  Fixture f;  // mtu 4096
  bool delivered = false;
  f.net.send(0, 2, 100, 41024, nullptr, [&] { delivered = true; });
  f.engine.run();
  EXPECT_TRUE(delivered);
  // 41024 = 10 * 4096 + 64 -> 11 packets.
  EXPECT_EQ(f.net.counters().packets_delivered, 11u);
  EXPECT_EQ(f.net.counters().messages_delivered, 1u);
  EXPECT_EQ(f.net.uplink(0).packets_sent(), 11u);
  EXPECT_EQ(f.net.downlink(2).packets_sent(), 11u);
}

TEST(Network, ExactMtuMultipleHasNoTailPacket) {
  Fixture f;
  f.net.send(0, 1, 100, 8192, nullptr, nullptr);
  f.engine.run();
  EXPECT_EQ(f.net.counters().packets_delivered, 2u);
}

TEST(Network, SameNodeUsesLocalChannelNotSwitch) {
  Fixture f;
  bool delivered = false;
  f.net.send(3, 3, 100, 10000, nullptr, [&] { delivered = true; });
  f.engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.net.switch_counters().packets, 0u);
  EXPECT_EQ(f.net.counters().packets_delivered, 0u);  // cross-node only
  EXPECT_EQ(f.net.counters().messages_delivered, 1u);
}

TEST(Network, IdleLatencyCalibration) {
  // Many isolated 1 KB packets on an idle network: the latency
  // distribution matches the paper's idle switch (mode ~1.25 us, a few
  // slower stragglers from the arbitration tail).
  Fixture f;
  OnlineStats lat;
  Tick t = 0;
  for (int i = 0; i < 4000; ++i) {
    t += units::us(5);  // spaced out: no queueing
    // `i` by value: the event runs after the loop has moved on.
    f.engine.schedule_at(t, [&, i] {
      const Tick sent = f.engine.now();
      f.net.send(i % 18, (i + 1) % 18, 100 + i % 7, 1088, nullptr,
                 [&, sent] { lat.add(units::to_us(f.engine.now() - sent)); });
    });
  }
  f.engine.run();
  EXPECT_EQ(lat.count(), 4000u);
  EXPECT_GT(lat.mean(), 1.0);
  EXPECT_LT(lat.mean(), 1.7);
  EXPECT_GT(lat.min(), 0.8);
  EXPECT_LT(lat.min(), 1.3);
  EXPECT_GT(lat.max(), 2.0);  // tail events exist
}

TEST(Network, OutputPortContentionSlowsDelivery) {
  // Two senders saturating one destination take ~2x the bandwidth-bound
  // time of one sender.
  auto run_senders = [](int senders) {
    sim::Engine engine;
    Network net(engine, NetworkConfig::cab_like(), Rng(2));
    int remaining = senders * 50;
    Tick done = 0;
    for (int s = 0; s < senders; ++s)
      for (int i = 0; i < 50; ++i)
        net.send(1 + s, 0, 10 + s, 40960, nullptr, [&] {
          if (--remaining == 0) done = engine.now();
        });
    engine.run();
    return done;
  };
  const Tick one = run_senders(1);
  const Tick two = run_senders(2);
  EXPECT_GT(two, one * 3 / 2);
  EXPECT_LT(two, one * 3);
}

TEST(Network, SharedQueueSwitchKindWorks) {
  sim::Engine engine;
  NetworkConfig cfg = NetworkConfig::cab_like();
  cfg.switch_kind = SwitchKind::kSharedQueue;
  Network net(engine, cfg, Rng(3));
  bool delivered = false;
  net.send(0, 5, 1, 1088, nullptr, [&] { delivered = true; });
  engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.switch_counters().packets, 1u);
}

TEST(Network, FlowAllocationIsDisjoint) {
  Fixture f;
  const FlowId a = f.net.allocate_flows(144);
  const FlowId b = f.net.allocate_flows(36);
  EXPECT_GE(b, a + 144);
}

TEST(Network, InvalidSendArgumentsThrow) {
  Fixture f;
  EXPECT_THROW(f.net.send(-1, 0, 1, 100, nullptr, nullptr), Error);
  EXPECT_THROW(f.net.send(0, 99, 1, 100, nullptr, nullptr), Error);
  EXPECT_THROW(f.net.send(0, 1, 1, 0, nullptr, nullptr), Error);
}

TEST(Network, InFlightDrainsToZero) {
  Fixture f;
  for (int i = 0; i < 20; ++i)
    f.net.send(i % 18, (i + 5) % 18, i, 5000, nullptr, nullptr);
  EXPECT_GT(f.net.in_flight_messages(), 0u);
  f.engine.run();
  EXPECT_EQ(f.net.in_flight_messages(), 0u);
  EXPECT_EQ(f.net.counters().messages_delivered, 20u);
}

TEST(Network, PacketLatencyStatsPopulated) {
  Fixture f;
  f.net.send(0, 1, 1, 1088, nullptr, nullptr);
  f.engine.run();
  EXPECT_EQ(f.net.counters().packet_latency_us.count(), 1u);
  EXPECT_GT(f.net.counters().packet_latency_us.mean(), 0.5);
}

}  // namespace
}  // namespace actnet::net
