// DRR link: serialization timing, FIFO within a flow, fairness across
// flows, counters.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/link.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace actnet::net {
namespace {

TEST(Link, SingleTransferTiming) {
  sim::Engine e;
  // 1 GB/s, 100 ns propagation: 1000 bytes -> 1000 ns ser + 100 ns prop.
  Link link(e, units::GBps(1.0), 100);
  Tick serialized = -1, arrived = -1;
  link.transmit(1, 1000, [&] { serialized = e.now(); },
                [&] { arrived = e.now(); });
  e.run();
  EXPECT_EQ(serialized, 1000);
  EXPECT_EQ(arrived, 1100);
  EXPECT_EQ(link.packets_sent(), 1u);
  EXPECT_EQ(link.bytes_sent(), 1000);
  EXPECT_EQ(link.busy_time(), 1000);
}

TEST(Link, SameFlowIsFifoAndBackToBack) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  std::vector<Tick> arrivals;
  for (int i = 0; i < 3; ++i)
    link.transmit(7, 500, nullptr, [&] { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 500);
  EXPECT_EQ(arrivals[1], 1000);
  EXPECT_EQ(arrivals[2], 1500);
}

TEST(Link, SmallPacketOnOtherFlowOvertakesBulkBacklog) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0, /*quantum=*/2048);
  // Flow 1 queues 20 x 4 KB (80 us of backlog); then flow 2 submits one
  // 1 KB packet. Under FIFO the small packet would wait ~80 us; under DRR
  // it waits roughly one 4 KB service (4 us) plus its own (1 us).
  Tick probe_arrival = -1;
  for (int i = 0; i < 20; ++i) link.transmit(1, 4096, nullptr, [] {});
  link.transmit(2, 1024, nullptr, [&] { probe_arrival = e.now(); });
  e.run();
  ASSERT_GT(probe_arrival, 0);
  EXPECT_LT(probe_arrival, units::us(12));
  EXPECT_GT(probe_arrival, units::us(1));
}

TEST(Link, FairBandwidthSplitBetweenTwoBackloggedFlows) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  Tick last_a = 0, last_b = 0;
  for (int i = 0; i < 50; ++i) {
    link.transmit(1, 1000, nullptr, [&] { last_a = e.now(); });
    link.transmit(2, 1000, nullptr, [&] { last_b = e.now(); });
  }
  e.run();
  // Both flows finish at ~the same time: neither starves.
  EXPECT_NEAR(static_cast<double>(last_a), static_cast<double>(last_b),
              static_cast<double>(units::us(2.5)));
  EXPECT_EQ(e.now(), 100000);  // work-conserving: 100 x 1000 B at 1 GB/s
}

TEST(Link, WorkConservingUnderMixedSizes) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  Bytes total = 0;
  for (int i = 0; i < 10; ++i) {
    link.transmit(i % 3, 100 + i * 300, nullptr, [] {});
    total += 100 + i * 300;
  }
  e.run();
  EXPECT_EQ(e.now(), total);  // no idle gaps
  EXPECT_EQ(link.bytes_sent(), total);
  EXPECT_EQ(link.busy_time(), total);
}

TEST(Link, QueueCountersTrackBacklog) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  link.transmit(1, 1000, nullptr, [] {});
  link.transmit(1, 1000, nullptr, [] {});
  link.transmit(2, 500, nullptr, [] {});
  // One packet is in service; two still queued.
  EXPECT_EQ(link.queued_packets(), 2u);
  EXPECT_TRUE(link.busy());
  EXPECT_EQ(link.active_flows() + (link.queued_packets() ? 0u : 0u),
            link.active_flows());
  e.run();
  EXPECT_EQ(link.queued_packets(), 0u);
  EXPECT_EQ(link.queued_bytes(), 0);
  EXPECT_FALSE(link.busy());
}

TEST(Link, TinyPacketStillTakesAtLeastOneTick) {
  sim::Engine e;
  Link link(e, units::GBps(100.0), 0);  // 1 byte = 0.01 ns -> clamps to 1
  Tick arrived = -1;
  link.transmit(1, 1, nullptr, [&] { arrived = e.now(); });
  e.run();
  EXPECT_EQ(arrived, 1);
}

TEST(Link, InvalidArgumentsThrow) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  EXPECT_THROW(link.transmit(1, 0, nullptr, [] {}), Error);
  EXPECT_THROW(link.transmit(1, 100, nullptr, nullptr), Error);
  EXPECT_THROW(Link(e, 0.0, 0), Error);
  EXPECT_THROW(Link(e, 1.0, -1), Error);
}

TEST(Link, ProbePacketsUnderBulkLoadWaitFractionOfRoundNotBacklog) {
  // 16 flows keep the link saturated with 4 KB packets for 2 ms; probe
  // packets on a 17th flow are injected every 100 us. Mean probe latency
  // must be on the order of one DRR round (tens of microseconds at most),
  // never the multi-hundred-microsecond standing backlog.
  sim::Engine e;
  Link link(e, units::GBps(5.0), 0);
  std::function<void(int)> refill = [&](int flow) {
    link.transmit(flow, 4096, nullptr, [&, flow] {
      if (e.now() < units::ms(2)) refill(flow);
    });
  };
  for (int f = 0; f < 16; ++f)
    for (int i = 0; i < 8; ++i) refill(f);  // standing backlog per flow
  OnlineStats probe_wait_us;
  for (int i = 0; i < 15; ++i) {
    e.schedule_at(units::us(100) * (i + 1), [&] {
      const Tick sent = e.now();
      link.transmit(99, 1024, nullptr, [&, sent] {
        probe_wait_us.add(units::to_us(e.now() - sent));
      });
    });
  }
  e.run();
  ASSERT_EQ(probe_wait_us.count(), 15u);
  // One full round of 16 flows serving ~a quantum each is ~4.2 us; allow
  // a few rounds of slack but reject backlog-scale waits (> 50 us).
  EXPECT_GT(probe_wait_us.mean(), 0.5);
  EXPECT_LT(probe_wait_us.mean(), 15.0);
  EXPECT_LT(probe_wait_us.max(), 50.0);
}

// --- message trains: one call queues a whole message on its flow ---

TEST(Link, TrainUncontendedServesBackToBack) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  std::vector<std::pair<std::uint32_t, Tick>> arrivals;
  Tick last_serialized = -1;
  link.transmit_train(1, 3, 500, 0, [&] { last_serialized = e.now(); },
                      [&](std::uint32_t i) { arrivals.emplace_back(i, e.now()); });
  EXPECT_TRUE(link.busy());
  EXPECT_EQ(link.queued_packets(), 2u);  // packet 0 is in service
  EXPECT_EQ(link.trains_live(), 1u);
  e.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (std::pair<std::uint32_t, Tick>{0, 500}));
  EXPECT_EQ(arrivals[1], (std::pair<std::uint32_t, Tick>{1, 1000}));
  EXPECT_EQ(arrivals[2], (std::pair<std::uint32_t, Tick>{2, 1500}));
  EXPECT_EQ(last_serialized, 1500);
  EXPECT_EQ(link.packets_sent(), 3u);
  EXPECT_EQ(link.bytes_sent(), 1500);
  EXPECT_EQ(link.busy_time(), 1500);
  EXPECT_FALSE(link.busy());
  EXPECT_EQ(link.trains_live(), 0u);  // record released after last arrival
}

TEST(Link, TrainTailPacketUsesTailSize) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 100);
  std::vector<Tick> arrivals;
  link.transmit_train(1, 3, 1000, 250, nullptr,
                      [&](std::uint32_t) { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1100);
  EXPECT_EQ(arrivals[1], 2100);
  EXPECT_EQ(arrivals[2], 2350);  // 2250 serialized + 100 propagation
  EXPECT_EQ(link.bytes_sent(), 2250);
}

/// A competing flow lands mid-train: DRR interleaves it at the train
/// flow's next visit boundary. Pinned log (1 GB/s, quantum 2048, 1000-byte
/// train packets): the train flow earns 2048 per visit, so it serves two
/// packets per visit; the competitor queued at 2500 waits out the visit in
/// progress (packets 2 and 3) and serves at 4000-4800, after which the
/// train resumes with its carried-over deficit.
TEST(Link, MidTrainCompetitorInterleavesAtVisitBoundary) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0, /*quantum=*/2048);
  std::vector<std::pair<int, Tick>> log;  // (tag, arrival tick)
  link.transmit_train(1, 8, 1000, 0, nullptr, [&](std::uint32_t i) {
    log.emplace_back(static_cast<int>(i), e.now());
  });
  // Competitor arrives while packet 2 of the train is serializing.
  e.schedule_at(2500, [&] {
    link.transmit(2, 800, nullptr, [&] { log.emplace_back(100, e.now()); });
    EXPECT_EQ(link.active_flows(), 2u);
    EXPECT_EQ(link.queued_packets(), 6u);  // train packets 3..7 + competitor
  });
  e.run();
  const std::vector<std::pair<int, Tick>> expected = {
      {0, 1000}, {1, 2000}, {2, 3000}, {3, 4000}, {100, 4800},
      {4, 5800}, {5, 6800}, {6, 7800}, {7, 8800}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(e.now(), 8800);
  EXPECT_EQ(link.bytes_sent(), 8800);
  EXPECT_EQ(link.trains_live(), 0u);
}

TEST(Link, ReentrantTransmitFromLastSerializedCallback) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  std::vector<std::pair<int, Tick>> log;
  link.transmit_train(
      1, 2, 500, 0,
      [&] {
        // Fires at t=1000, mid finish_service: the train is fully
        // serialized but the port is not yet free. The new packet must
        // queue behind it and serve immediately after.
        link.transmit(2, 300, nullptr,
                      [&] { log.emplace_back(100, e.now()); });
      },
      [&](std::uint32_t i) { log.emplace_back(static_cast<int>(i), e.now()); });
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, Tick>{0, 500}));
  EXPECT_EQ(log[1], (std::pair<int, Tick>{1, 1000}));
  EXPECT_EQ(log[2], (std::pair<int, Tick>{100, 1300}));
  EXPECT_FALSE(link.busy());
}

TEST(Link, BackToBackTrainsRecycleThePool) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  int arrivals = 0;
  for (int t = 0; t < 4; ++t) {
    link.transmit_train(1, 4, 250, 0, nullptr,
                        [&](std::uint32_t) { ++arrivals; });
    EXPECT_EQ(link.trains_live(), 1u);
    e.run();
    EXPECT_EQ(link.trains_live(), 0u);
  }
  EXPECT_EQ(arrivals, 16);
  EXPECT_EQ(e.now(), 4000);
  // Each train's record was released before the next was parked, so all
  // four reused one slot.
  EXPECT_EQ(link.trains_capacity(), 1u);
}

// --- storage: record blocks and the flow index ---

TEST(Link, RecordBlocksGrowWithBacklogAndShrinkWhenIdle) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  EXPECT_EQ(link.record_blocks(), 0u);  // nothing allocated before use
  int arrivals = 0;
  for (int i = 0; i < 100; ++i)
    link.transmit(1 + i % 3, 500, nullptr, [&] { ++arrivals; });
  // 100 records (99 queued + 1 in service) need ceil(100 / 16) blocks.
  EXPECT_EQ(link.record_blocks(), 7u);
  e.run();
  EXPECT_EQ(arrivals, 100);
  // The idle port hands every block but the first back.
  EXPECT_EQ(link.record_blocks(), 1u);
  // ...and a second burst reuses it and grows again.
  link.transmit_train(5, 40, 500, 0, nullptr, [&](std::uint32_t) { ++arrivals; });
  EXPECT_EQ(link.record_blocks(), 3u);
  e.run();
  EXPECT_EQ(arrivals, 140);
  EXPECT_EQ(link.record_blocks(), 1u);
}

TEST(Link, ManyFlowsServeInRoundRobinOrder) {
  // 300 flows (past several flow-index and ring growths), two
  // quantum-sized packets each: DRR serves every flow's first packet in
  // arrival order, then every flow's second.
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0, /*quantum=*/1000);
  constexpr int kFlows = 300;
  std::vector<int> order;
  for (int round = 0; round < 2; ++round)
    for (int f = 0; f < kFlows; ++f)
      link.transmit(static_cast<FlowId>(7919 * f + 13), 1000, nullptr,
                    [&order, f] { order.push_back(f); });
  EXPECT_EQ(link.active_flows(), static_cast<std::size_t>(kFlows));
  e.run();
  ASSERT_EQ(order.size(), 2u * kFlows);
  for (int i = 0; i < 2 * kFlows; ++i) EXPECT_EQ(order[i], i % kFlows) << i;
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(Link, InvalidTrainArgumentsThrow) {
  sim::Engine e;
  Link link(e, units::GBps(1.0), 0);
  EXPECT_THROW(link.transmit_train(1, 0, 500, 0, nullptr, [](std::uint32_t) {}),
               Error);
  EXPECT_THROW(link.transmit_train(1, 3, 0, 0, nullptr, [](std::uint32_t) {}),
               Error);
  EXPECT_THROW(link.transmit_train(1, 3, 500, 0, nullptr, nullptr), Error);
}

}  // namespace
}  // namespace actnet::net
