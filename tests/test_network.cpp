// Network: packetization, delivery callbacks, idle latency calibration,
// same-node channel, contention at shared ports, counters, the per-packet
// event budget, and the folded chain's timing against an unfolded one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/trace.h"
#include "util/json.h"
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

TEST(Network, SharedQueueSwitchKindIsSinglePodOnly) {
  sim::Engine engine;
  NetworkConfig cfg = NetworkConfig::cab_like();
  cfg.switch_kind = SwitchKind::kSharedQueue;
  cfg.pods = 2;
  EXPECT_THROW(Network(engine, cfg, Rng(3)), Error);
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
  const obs::LocalHistogram& lat = f.net.packet_latency();
  EXPECT_EQ(lat.count(), 1u);
  EXPECT_GT(lat.sum(), 500u * lat.count());  // mean above 0.5 us
}

// --- the folded per-packet chain ---

NetworkConfig irregular_config(int nodes) {
  // Awkward constants, so hop boundaries land on irregular ticks and
  // unrelated events rarely share one.
  NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.link_bandwidth = units::GBps(4.7);
  cfg.link_propagation = units::ns(73);
  cfg.recv_overhead = units::ns(211);
  return cfg;
}

NetworkConfig stalling_config(int nodes) {
  // Frequent long switch stalls: a message's packets leave the switch out
  // of order.
  NetworkConfig cfg = irregular_config(nodes);
  cfg.output_queued.tail_prob = 0.4;
  cfg.output_queued.tail_offset_ns = 3000.0;
  return cfg;
}

TEST(Network, UncontendedMessageCostsThreeEventsPerPacketPlusOne) {
  // Uplink serialization end, switch exit and downlink serialization end
  // per packet, and one completion per message: cables and the receive
  // overhead are folded into the next stage's decision.
  for (const std::uint32_t k : {1u, 2u, 5u, 11u}) {
    sim::Engine engine;
    Network net(engine, irregular_config(4), Rng(5));
    net.set_flow_forward(false);
    Tick delivered = -1;
    net.send(0, 1, 1, static_cast<Bytes>(k) * 4096 - 100, nullptr,
             [&] { delivered = engine.now(); });
    engine.run();
    EXPECT_GT(delivered, 0);
    EXPECT_EQ(engine.events_processed(), 3 * k + 1) << k << " packets";
    EXPECT_EQ(net.counters().packets_delivered, k);
  }
}

/// One "X" span of a trace, in ticks.
struct Span {
  int tid = 0;
  Tick start = 0;
  Tick dur = 0;
  bool operator==(const Span& o) const {
    return tid == o.tid && start == o.start && dur == o.dur;
  }
  bool operator<(const Span& o) const {
    return std::tie(tid, start, dur) < std::tie(o.tid, o.start, o.dur);
  }
};

/// The "X" spans named `name`, in recording order.
std::vector<Span> spans_named(const obs::Tracer& tracer,
                              const std::string& name) {
  std::ostringstream os;
  tracer.write(os);
  const util::JsonValue doc = util::JsonValue::parse(os.str());
  std::vector<Span> out;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X" || e.at("name").as_string() != name)
      continue;
    // Microseconds with exact nanosecond fractions.
    out.push_back(Span{static_cast<int>(e.at("tid").as_number()),
                       std::llround(e.at("ts").as_number() * 1000.0),
                       std::llround(e.at("dur").as_number() * 1000.0)});
  }
  return out;
}

TEST(Network, ReorderedPacketsDeliverAtTheLatestCompletion) {
  // Stalls reorder a message's packets in the switch. The downlink serves
  // them in exit order, so the packet serialized last completes last: its
  // completion event fires on_delivered, at the latest packet tick, and
  // every packet is still counted, in the counters and the histogram.
  int reordered = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sim::Engine engine;
    obs::TraceConfig tc;
    tc.path.clear();
    obs::Tracer tracer(tc);
    Network net(engine, stalling_config(4), Rng(seed));
    net.set_flow_forward(false);
    net.set_tracer(&tracer);
    constexpr std::uint32_t k = 6;
    Tick delivered = -1;
    net.send(0, 1, 1, k * 4096, nullptr, [&] { delivered = engine.now(); });
    engine.run();
    EXPECT_EQ(engine.events_processed(), 3 * k + 1);
    EXPECT_EQ(net.counters().packets_delivered, k);
    EXPECT_EQ(net.packet_latency().count(), k);

    const std::vector<Span> sw = spans_named(tracer, "switch");
    const std::vector<Span> pkt = spans_named(tracer, "packet");
    ASSERT_EQ(sw.size(), k);
    ASSERT_EQ(pkt.size(), k);
    Tick latest = 0;
    for (const Span& s : pkt) latest = std::max(latest, s.start + s.dur);
    EXPECT_EQ(delivered, latest) << "seed " << seed;
    // Switch spans come in uplink (seq) order.
    for (std::uint32_t i = 0; i + 1 < k; ++i)
      if (sw[i].start + sw[i].dur > sw[k - 1].start + sw[k - 1].dur) {
        ++reordered;
        break;
      }
  }
  EXPECT_GT(reordered, 3);
}

/// A scripted send: `size` bytes from `src` to `dst` at tick `at`.
struct Send {
  Tick at;
  NodeId src;
  NodeId dst;
  Bytes size;
};

std::vector<Send> contended_script(std::uint64_t seed, int nodes) {
  Rng g(seed);
  std::vector<Send> script;
  for (int i = 0; i < 40; ++i) {
    const Tick at = g.uniform_int(500, 120'000);
    const auto src = static_cast<NodeId>(g.uniform_int(0, nodes - 1));
    auto dst = static_cast<NodeId>(g.uniform_int(0, nodes - 1));
    if (dst == src) dst = (dst + 1) % nodes;
    script.push_back({at, src, dst, g.uniform_int(64, 24'000)});
  }
  return script;
}

/// Per message: (injected tick, delivered tick).
using DeliveryLog = std::vector<std::pair<Tick, Tick>>;

DeliveryLog run_folded(const NetworkConfig& cfg,
                       const std::vector<Send>& script, obs::Tracer* tracer) {
  sim::Engine engine;
  Network net(engine, cfg, Rng(9));
  net.set_flow_forward(false);
  if (tracer != nullptr) net.set_tracer(tracer);
  const FlowId flows = net.allocate_flows(cfg.nodes);
  DeliveryLog log(script.size(), {-1, -1});
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Send s = script[i];
    engine.schedule_at(s.at, [&, s, i] {
      net.send(s.src, s.dst, flows + static_cast<FlowId>(s.src), s.size,
               [&, i] { log[i].first = engine.now(); },
               [&, i] { log[i].second = engine.now(); });
    });
  }
  engine.run();
  return log;
}

/// The same physics with every fixed hop as an event of its own — links
/// with their cable, a switch-arrival event, a receive-overhead event per
/// packet — driven by the stage delays a traced folded run recorded (per
/// source node, in uplink departure order). Records the spans the
/// unfolded events would carry.
struct UnfoldedRun {
  DeliveryLog log;
  std::vector<Span> switch_spans;
  std::vector<Span> packet_spans;
  int reordered_messages = 0;
};

UnfoldedRun run_unfolded(const NetworkConfig& cfg,
                         const std::vector<Send>& script,
                         const std::vector<Span>& recorded_switch) {
  sim::Engine engine;
  PortStats ports;
  std::vector<std::unique_ptr<Link>> up, down;
  for (int n = 0; n < cfg.nodes; ++n) {
    up.push_back(std::make_unique<Link>(engine, ports, cfg.link_bandwidth,
                                        cfg.link_propagation, cfg.drr_quantum));
    down.push_back(std::make_unique<Link>(engine, ports, cfg.link_bandwidth,
                                          cfg.link_propagation,
                                          cfg.drr_quantum));
  }
  std::map<int, std::deque<Tick>> stage;  // per source, departure order
  for (const Span& s : recorded_switch) stage[s.tid].push_back(s.dur);

  UnfoldedRun out;
  out.log.assign(script.size(), {-1, -1});
  std::vector<std::uint32_t> remaining(script.size());
  for (std::size_t m = 0; m < script.size(); ++m) {
    const Send s = script[m];
    engine.schedule_at(s.at, [&, s, m] {
      const Tick t0 = engine.now();
      const auto k =
          static_cast<std::uint32_t>((s.size + cfg.mtu - 1) / cfg.mtu);
      remaining[m] = k;
      for (std::uint32_t i = 0; i < k; ++i) {
        const Bytes size = i + 1 < k ? cfg.mtu : s.size - (k - 1) * cfg.mtu;
        sim::EventFn injected;
        if (i + 1 == k) injected = [&, m] { out.log[m].first = engine.now(); };
        up[s.src]->transmit(
            static_cast<FlowId>(s.src), size, std::move(injected),
            [&, s, m, i, k, size, t0] {
              // Arrival at the switch input.
              const Tick d = stage[s.src].front();
              stage[s.src].pop_front();
              out.switch_spans.push_back(Span{s.src, engine.now(), d});
              engine.schedule_in(d, [&, s, m, i, k, size, t0] {
                down[s.dst]->transmit(
                    static_cast<FlowId>(s.src), size, nullptr,
                    [&, s, m, i, k, t0] {
                      // Arrival at the node; then the receive overhead.
                      engine.schedule_in(cfg.recv_overhead, [&, s, m, i, k,
                                                             t0] {
                        out.packet_spans.push_back(
                            Span{s.dst, t0, engine.now() - t0});
                        if (--remaining[m] > 0) return;
                        out.log[m].second = engine.now();
                        if (i + 1 != k) ++out.reordered_messages;
                      });
                    });
              });
            });
      }
    });
  }
  engine.run();
  return out;
}

TEST(Network, FoldedChainMatchesUnfoldedEventsWithTracingOnOrOff) {
  // Contended traffic on the packet path (flow-forward off). Tracing must
  // not move a delivery, and the folded chain's analytic "switch" and
  // "packet" spans must carry exactly the starts and durations the
  // unfolded per-hop events give the same packets.
  int reordered = 0;
  for (const bool stalls : {false, true}) {
    const NetworkConfig cfg = stalls ? stalling_config(4) : irregular_config(4);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::vector<Send> script = contended_script(seed, cfg.nodes);
      const DeliveryLog plain = run_folded(cfg, script, nullptr);
      obs::TraceConfig tc;
      tc.path.clear();
      obs::Tracer tracer(tc);
      const DeliveryLog traced = run_folded(cfg, script, &tracer);
      ASSERT_EQ(traced, plain) << "seed " << seed;
      for (const auto& [inj, del] : plain) ASSERT_GT(del, inj);

      const std::vector<Span> sw = spans_named(tracer, "switch");
      UnfoldedRun ref = run_unfolded(cfg, script, sw);
      ASSERT_EQ(ref.log, plain) << "seed " << seed << " stalls " << stalls;
      // Switch spans: per source lane, in departure order.
      const auto by_lane = [](const Span& a, const Span& b) {
        return a.tid < b.tid;
      };
      std::vector<Span> folded_sw = sw;
      std::stable_sort(folded_sw.begin(), folded_sw.end(), by_lane);
      std::stable_sort(ref.switch_spans.begin(), ref.switch_spans.end(),
                       by_lane);
      EXPECT_EQ(folded_sw, ref.switch_spans) << "seed " << seed;
      // Packet spans: the same multiset per destination lane (the folded
      // chain records a packet when its tick is known, not when reached).
      std::vector<Span> folded_pkt = spans_named(tracer, "packet");
      std::sort(folded_pkt.begin(), folded_pkt.end());
      std::sort(ref.packet_spans.begin(), ref.packet_spans.end());
      EXPECT_EQ(folded_pkt, ref.packet_spans) << "seed " << seed;
      reordered += ref.reordered_messages;
    }
  }
  EXPECT_GT(reordered, 0);  // the stalling stage did reorder messages
}

}  // namespace
}  // namespace actnet::net
