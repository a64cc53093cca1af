// Flow-level fast-forward regime (DESIGN.md §5.12).
//
// The flow-forward regime is only allowed to exist because its closed-form
// schedule lands every packet on EXACTLY the ticks the per-packet path
// would have produced, and because a demotion rebuilds EXACTLY the DRR
// state and the same-tick event order the per-packet path would have
// reached. These tests attack both claims: serial traffic must be
// bit-identical with the regime on or off, and even heavily contended
// traffic — demotions in every phase of a message's life, and competitors
// landing on the very tick a plan event falls on — must match the
// per-packet path tick for tick, counter for counter, depth sample for
// depth sample, on the default keyed random switch stage and on a
// deterministic one. Stage delays are keyed per packet, so the order in
// which messages are admitted cannot move them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "equivalence_harness.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace actnet {
namespace {

using testing::Lcg;

/// Everything one run produces that the regimes must agree on exactly.
/// Floating-point accumulators (OnlineStats variance, histogram of
/// latencies in the obs registry) are compared only where the ORDER of
/// accumulation provably matches; integer totals and per-message ticks
/// are always comparable.
struct RunLog {
  std::vector<std::pair<int, Tick>> injected;   // (msg, tick)
  std::vector<std::pair<int, Tick>> delivered;  // (msg, tick)
  std::uint64_t packets_delivered = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t flowfwd_messages = 0;
  std::uint64_t flowfwd_demotions = 0;
  std::uint64_t flowfwd_fallback_packets = 0;
  // Per-port integer counters, concatenated over all ports.
  std::vector<std::uint64_t> port_packets;
  std::vector<Bytes> port_bytes;
  std::vector<Tick> port_busy;
  // Queue-depth-on-enqueue distribution (order-free integer buckets).
  std::uint64_t depth_count = 0;
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_min = 0;
  std::uint64_t depth_max = 0;
  std::vector<std::uint64_t> depth_buckets;
  // Cross-node packet latency distribution (Network::packet_latency()).
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_min = 0;
  std::uint64_t latency_max = 0;
  std::vector<std::uint64_t> latency_buckets;
  // Integer leaf-switch counters (stage delays summed in ticks).
  std::uint64_t switch_packets = 0;
  Bytes switch_bytes = 0;
  Tick switch_time = 0;

  bool operator==(const RunLog& o) const {
    return injected == o.injected && delivered == o.delivered &&
           packets_delivered == o.packets_delivered &&
           messages_delivered == o.messages_delivered &&
           port_packets == o.port_packets && port_bytes == o.port_bytes &&
           port_busy == o.port_busy && depth_count == o.depth_count &&
           depth_sum == o.depth_sum && depth_min == o.depth_min &&
           depth_max == o.depth_max && depth_buckets == o.depth_buckets &&
           latency_count == o.latency_count &&
           latency_sum == o.latency_sum && latency_min == o.latency_min &&
           latency_max == o.latency_max &&
           latency_buckets == o.latency_buckets &&
           switch_packets == o.switch_packets &&
           switch_bytes == o.switch_bytes && switch_time == o.switch_time;
  }

  friend std::ostream& operator<<(std::ostream& os, const RunLog& l) {
    const auto pairs = [&os](const char* tag,
                             const std::vector<std::pair<int, Tick>>& v) {
      os << tag << "=[";
      for (const auto& [m, t] : v) os << " " << m << "@" << t;
      os << " ]";
    };
    const auto ints = [&os](const char* tag, const auto& v) {
      os << " " << tag << "=[";
      for (const auto x : v) os << " " << x;
      os << " ]";
    };
    pairs("injected", l.injected);
    pairs(" delivered", l.delivered);
    os << " pkts=" << l.packets_delivered << " msgs=" << l.messages_delivered
       << " ffwd=" << l.flowfwd_messages << "/" << l.flowfwd_demotions << "/"
       << l.flowfwd_fallback_packets;
    ints("port_packets", l.port_packets);
    ints("port_bytes", l.port_bytes);
    ints("port_busy", l.port_busy);
    os << " depth_count=" << l.depth_count << " depth_sum=" << l.depth_sum
       << " depth_min=" << l.depth_min << " depth_max=" << l.depth_max;
    ints("depth_buckets", l.depth_buckets);
    os << " latency_count=" << l.latency_count
       << " latency_sum=" << l.latency_sum
       << " latency_min=" << l.latency_min
       << " latency_max=" << l.latency_max;
    ints("latency_buckets", l.latency_buckets);
    os << " switch=" << l.switch_packets << "/" << l.switch_bytes << "/"
       << l.switch_time;
    return os;
  }
};

/// One scripted message: issue `send(src, dst, ...)` of `size` bytes at
/// tick `at`, from an event created at tick `created` (0: before the run
/// starts), which orders it among other events at `at`.
struct Send {
  Tick at;
  net::NodeId src;
  net::NodeId dst;
  Bytes size;
  Tick created = 0;
};

net::NetworkConfig irregular_config(int nodes) {
  // Deliberately awkward constants so analytic boundaries (serialization
  // ends, switch exits, completions) land on irregular ticks and a
  // demotion instant almost never ties with a plan boundary by accident.
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.link_bandwidth = units::GBps(4.7);
  cfg.link_propagation = units::ns(73);
  cfg.recv_overhead = units::ns(211);
  return cfg;
}

void make_deterministic(net::NetworkConfig& cfg) {
  // Zero jitter and zero tail probability: every stage delay is the fixed
  // routing latency, so packets tie at the switch exit far more often
  // than on the random stage — the harder case for same-tick ordering.
  cfg.output_queued.routing_latency = 157;
  cfg.output_queued.jitter_mean_ns = 0.0;
  cfg.output_queued.tail_prob = 0.0;
}

RunLog run_script(const net::NetworkConfig& cfg,
                  const std::vector<Send>& script, bool flowfwd,
                  std::uint64_t seed = 42) {
  sim::Engine eng;
  net::Network net(eng, cfg, Rng(seed));
  net.set_flow_forward(flowfwd);
  const net::FlowId flows = net.allocate_flows(cfg.nodes);

  RunLog log;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Send& s = script[i];
    const int msg = static_cast<int>(i);
    auto send = [&net, &log, &eng, s, msg, flows] {
      net.send(s.src, s.dst, flows + static_cast<net::FlowId>(s.src), s.size,
               [&log, &eng, msg] { log.injected.emplace_back(msg, eng.now()); },
               [&log, &eng, msg] {
                 log.delivered.emplace_back(msg, eng.now());
               });
    };
    if (s.created == 0) {
      eng.schedule_at(s.at, std::move(send));
    } else {
      eng.schedule_at(s.created, [&eng, at = s.at, send]() mutable {
        eng.schedule_at(at, std::move(send));
      });
    }
  }
  eng.run();

  log.packets_delivered = net.counters().packets_delivered;
  log.messages_delivered = net.counters().messages_delivered;
  log.flowfwd_messages = net.counters().flowfwd_messages;
  log.flowfwd_demotions = net.counters().flowfwd_demotions;
  log.flowfwd_fallback_packets = net.counters().flowfwd_fallback_packets;
  for (int n = 0; n < cfg.nodes; ++n) {
    for (const net::Link* l : {&net.uplink(n), &net.downlink(n)}) {
      log.port_packets.push_back(l->packets_sent());
      log.port_bytes.push_back(l->bytes_sent());
      log.port_busy.push_back(l->busy_time());
    }
  }
  const obs::LocalHistogram& depth = net.port_stats().depth;
  log.depth_count = depth.count();
  log.depth_sum = depth.sum();
  log.depth_min = depth.min();
  log.depth_max = depth.max();
  const obs::LocalHistogram& latency = net.packet_latency();
  log.latency_count = latency.count();
  log.latency_sum = latency.sum();
  log.latency_min = latency.min();
  log.latency_max = latency.max();
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    log.depth_buckets.push_back(depth.bucket(b));
    log.latency_buckets.push_back(latency.bucket(b));
  }
  log.switch_packets = net.switch_counters().packets;
  log.switch_bytes = net.switch_counters().bytes;
  log.switch_time = net.switch_counters().time_in_switch;
  return log;
}

// --- serial traffic: bit-identical including the random switch stage ---

std::vector<Send> serial_script() {
  // Strictly serial: each send starts well after the previous message
  // completed (10us gaps vs ~couple-us message times), so every message
  // flow-forwards and none demotes.
  std::vector<Send> script;
  const Bytes sizes[] = {1000,  4096,  5000, 40960, 12288, 100,
                         16384, 20000, 4097, 8192};
  Tick t = 1000;
  int i = 0;
  for (const Bytes size : sizes) {
    const net::NodeId src = i % 4;
    const net::NodeId dst = (i + 1 + i % 3) % 4;
    script.push_back(Send{t, src, dst == src ? (src + 1) % 4 : dst, size});
    t += units::us(10);
    ++i;
  }
  return script;
}

TEST(FlowForward, SerialTrafficBitIdenticalWithRandomSwitch) {
  net::NetworkConfig cfg = irregular_config(4);  // default random switch
  const auto script = serial_script();
  const RunLog off = run_script(cfg, script, /*flowfwd=*/false);
  const RunLog on = run_script(cfg, script, /*flowfwd=*/true);
  EXPECT_EQ(on, off);
  EXPECT_EQ(off.flowfwd_messages, 0u);
  EXPECT_EQ(on.flowfwd_messages, script.size());
  EXPECT_EQ(on.flowfwd_demotions, 0u);
  EXPECT_EQ(on.flowfwd_fallback_packets, 0u);
  EXPECT_EQ(on.messages_delivered, script.size());
}

// --- contended traffic: exact equivalence on either switch stage ---

std::vector<Send> random_script(std::uint64_t seed, int nodes, int count) {
  Lcg g{seed};
  std::vector<Send> script;
  for (int i = 0; i < count; ++i) {
    // Dense enough that routes frequently collide mid-message (demotions
    // in every phase), sparse enough that some flow-forwards complete.
    const Tick at = 500 + static_cast<Tick>(g.next() % 200'000);
    const net::NodeId src = static_cast<net::NodeId>(g.next() % nodes);
    net::NodeId dst = static_cast<net::NodeId>(g.next() % nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    const Bytes size = 64 + static_cast<Bytes>(g.next() % 24'000);
    script.push_back(Send{at, src, dst, size});
  }
  return script;
}

/// Serialization time of `size` bytes on `cfg`'s links, as the ports
/// compute it.
Tick ser_of(const net::NetworkConfig& cfg, Bytes size) {
  return std::max<Tick>(1, units::serialization(size, cfg.link_bandwidth));
}

enum class Stage { kKeyedRandom, kDeterministic, kExitOnNextSerializationEnd };

/// The exactness properties, run on the default keyed random switch stage,
/// on the deterministic one, and on a deterministic one whose switch exit
/// of a full packet falls on the tick the next full packet finishes
/// serializing, both events created at one tick.
class FlowForwardSwitchStage : public ::testing::TestWithParam<Stage> {
 protected:
  static net::NetworkConfig config() {
    net::NetworkConfig cfg = irregular_config(4);
    if (GetParam() != Stage::kKeyedRandom) make_deterministic(cfg);
    if (GetParam() == Stage::kExitOnNextSerializationEnd)
      cfg.output_queued.routing_latency =
          ser_of(cfg, cfg.mtu) - cfg.link_propagation;
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(
    SwitchStages, FlowForwardSwitchStage,
    ::testing::Values(Stage::kKeyedRandom, Stage::kDeterministic,
                      Stage::kExitOnNextSerializationEnd),
    [](const ::testing::TestParamInfo<Stage>& p) {
      switch (p.param) {
        case Stage::kKeyedRandom:
          return "KeyedRandom";
        case Stage::kDeterministic:
          return "Deterministic";
        case Stage::kExitOnNextSerializationEnd:
          return "ExitOnNextSerializationEnd";
      }
      return "";
    });

TEST_P(FlowForwardSwitchStage, ContendedTrafficExact) {
  const net::NetworkConfig cfg = config();
  std::uint64_t total_demotions = 0;
  std::uint64_t total_flowfwd = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto script = random_script(seed, cfg.nodes, 40);
    // Reference: per-packet DRR all the way down.
    const RunLog ref = run_script(cfg, script, /*flowfwd=*/false);
    ASSERT_EQ(ref.messages_delivered, script.size()) << "seed " << seed;
    const RunLog got = run_script(cfg, script, /*flowfwd=*/true);
    ASSERT_EQ(got, ref) << "seed " << seed;
    total_demotions += got.flowfwd_demotions;
    total_flowfwd += got.flowfwd_messages;
  }
  // The property is vacuous unless the sweep actually exercised both the
  // closed-form completions and the demotion machinery.
  EXPECT_GT(total_flowfwd, 100u);
  EXPECT_GT(total_demotions, 50u);
}

// --- demotion drill: a competitor at every phase of the message's life ---

TEST_P(FlowForwardSwitchStage, DemotionExactInEveryPhase) {
  const net::NetworkConfig cfg = config();
  // One 5-packet message 0 -> 1 at t=1000; its life (uplink serialization,
  // switch stage, downlink serialization, receive) spans roughly
  // 5 * 871ns + small constants ~ 4.5us. Sweep a single competitor across
  // that span in odd steps, hitting every phase boundary region, on both
  // the uplink (0 -> 2 shares the source port) and the downlink (2 -> 1
  // shares the destination port).
  const Bytes msg = 4 * 4096 + 1234;
  for (const bool hit_uplink : {true, false}) {
    for (Tick td = 1050; td < 1000 + units::us(6); td += 371) {
      const std::vector<Send> script = {
          Send{1000, 0, 1, msg},
          Send{td, hit_uplink ? 0 : 2, hit_uplink ? 2 : 1, 3000},
      };
      const RunLog off = run_script(cfg, script, /*flowfwd=*/false);
      const RunLog on = run_script(cfg, script, /*flowfwd=*/true);
      ASSERT_EQ(on, off) << "competitor at " << td << " hitting "
                         << (hit_uplink ? "uplink" : "downlink");
    }
  }
}

// --- keyed draws: admission order does not move a stage delay ---

TEST(FlowForward, SameTickAdmissionOrderKeepsStageDelays) {
  // Four disjoint routes (0->1, 2->3, 4->5, 6->7), every flow sending a
  // single-packet message at the same three ticks. On an idle route such a
  // message is delivered at its send tick plus fixed hops plus its one
  // stage delay. Reversing the same-tick admission order hands a
  // sequential stream's draws to different packets; keyed draws give each
  // packet the same delay in either order, with flow-forward on or off.
  const net::NetworkConfig cfg = irregular_config(8);
  std::vector<Send> script;
  for (const Tick at : {Tick{1000}, units::us(20), units::us(40)})
    for (net::NodeId src = 0; src < cfg.nodes; src += 2)
      script.push_back(Send{at, src, src + 1, 1000});
  const std::vector<Send> reversed(script.rbegin(), script.rend());
  const auto n = static_cast<int>(script.size());

  // Stage delay (plus the fixed hops) of each message, by script index.
  const auto delays = [&](const RunLog& log, bool is_reversed) {
    std::vector<Tick> d(script.size(), -1);
    for (const auto& [msg, t] : log.delivered) {
      const int i = is_reversed ? n - 1 - msg : msg;
      d[static_cast<std::size_t>(i)] = t - script[static_cast<std::size_t>(i)].at;
    }
    return d;
  };
  for (const bool flowfwd : {false, true}) {
    const RunLog fwd = run_script(cfg, script, flowfwd);
    const RunLog rev = run_script(cfg, reversed, flowfwd);
    ASSERT_EQ(fwd.messages_delivered, script.size());
    ASSERT_EQ(fwd.flowfwd_demotions + rev.flowfwd_demotions, 0u);
    const std::vector<Tick> d = delays(fwd, false);
    EXPECT_EQ(d, delays(rev, true)) << "flowfwd=" << flowfwd;
    EXPECT_EQ(fwd.switch_packets, rev.switch_packets);
    EXPECT_EQ(fwd.switch_bytes, rev.switch_bytes);
    EXPECT_EQ(fwd.switch_time, rev.switch_time);
    // Not vacuous: the random stage gave the same-tick packets different
    // delays, so a reshuffled draw would have shown.
    EXPECT_GT(std::set<Tick>(d.begin(), d.end()).size(), script.size() / 2);
  }
}

// --- eligibility and counters ---

TEST(FlowForward, SharedQueueSwitchNeverFastForwards) {
  net::NetworkConfig cfg = irregular_config(4);
  cfg.switch_kind = net::SwitchKind::kSharedQueue;
  const RunLog on = run_script(cfg, serial_script(), /*flowfwd=*/true);
  EXPECT_EQ(on.flowfwd_messages, 0u);
  EXPECT_EQ(on.messages_delivered, serial_script().size());
}

TEST(FlowForward, CountersSurfaceInRegistry) {
  net::NetworkConfig cfg = irregular_config(4);
  make_deterministic(cfg);
  // The network publishes into the process-wide registry when destroyed;
  // compare the registry's deltas with the counters it had at that point.
  obs::Registry& reg = obs::default_registry();
  const std::uint64_t messages0 = reg.counter("net.flowfwd.messages").value();
  const std::uint64_t demotions0 =
      reg.counter("net.flowfwd.demotions").value();
  const std::uint64_t fallback0 =
      reg.counter("net.flowfwd.fallback_packets").value();
  net::NetworkCounters counters;
  {
    sim::Engine eng;
    net::Network net(eng, cfg, Rng(7));
    net.set_flow_forward(true);
    const net::FlowId flows = net.allocate_flows(4);
    // One clean flow-forward and one demoted by downlink cross-traffic.
    eng.schedule_at(1000, [&] { net.send(0, 1, flows, 8192, {}, {}); });
    eng.schedule_at(units::us(200),
                    [&] { net.send(0, 1, flows, 8192, {}, {}); });
    eng.schedule_at(units::us(200) + 300,
                    [&] { net.send(2, 1, flows + 2, 4096, {}, {}); });
    eng.run();
    counters = net.counters();
  }
  EXPECT_EQ(reg.counter("net.flowfwd.messages").value() - messages0,
            counters.flowfwd_messages);
  EXPECT_EQ(reg.counter("net.flowfwd.demotions").value() - demotions0,
            counters.flowfwd_demotions);
  EXPECT_EQ(reg.counter("net.flowfwd.fallback_packets").value() - fallback0,
            counters.flowfwd_fallback_packets);
  EXPECT_EQ(counters.flowfwd_messages, 2u);
  EXPECT_EQ(counters.flowfwd_demotions, 1u);
  EXPECT_GT(counters.flowfwd_fallback_packets, 0u);
  EXPECT_EQ(counters.messages_delivered, 3u);
}

TEST(FlowForward, DemotionCooldownKeepsContendedPortsOnPacketPath) {
  net::NetworkConfig cfg = irregular_config(4);
  make_deterministic(cfg);
  // A demotion at ~t=2400 starts the cooldown on uplink 0 / downlink 1; a
  // send inside the cooldown window must go straight to the packet path.
  // Well past the cooldown (25us default), flow-forward resumes.
  const RunLog on = run_script(cfg,
                               {Send{1000, 0, 1, 8192}, Send{1300, 2, 1, 4096},
                                Send{units::us(10), 0, 1, 8192},
                                Send{units::us(100), 0, 1, 8192}},
                               /*flowfwd=*/true);
  EXPECT_EQ(on.flowfwd_demotions, 1u);
  EXPECT_EQ(on.flowfwd_messages, 2u);  // first and last send
  EXPECT_EQ(on.messages_delivered, 4u);
}

// --- same-tick demotions: the competitor lands on a plan event's tick ---
//
// A demotion must count a plan event on the current tick as already run
// exactly when the per-packet path would have run it before the competing
// event: by creation tick first, then by the two messages' send places.

/// Runs `script` in both regimes, expects the same log from each and at
/// least `min_demotions` demotions, and returns the flow-forward run's log.
RunLog expect_regimes_agree(const net::NetworkConfig& cfg,
                            const std::vector<Send>& script,
                            std::uint64_t min_demotions, const char* what) {
  const RunLog off = run_script(cfg, script, /*flowfwd=*/false);
  const RunLog on = run_script(cfg, script, /*flowfwd=*/true);
  EXPECT_EQ(off.messages_delivered, script.size()) << what;
  EXPECT_EQ(on, off) << what;
  EXPECT_GE(on.flowfwd_demotions, min_demotions) << what;
  return on;
}

TEST(FlowForward, CompetitorOnAnUplinkSerializationEndTick) {
  // A 3-packet plan 0 -> 1 from t=1000; a 64 B send from node 0 lands
  // exactly where packet k's uplink serialization ends. Created before
  // packet k began serializing, the send runs first on the per-packet
  // path and finds packet k still on the wire; created after, packet k
  // has already left.
  net::NetworkConfig cfg = irregular_config(4);
  make_deterministic(cfg);
  const Tick ser = ser_of(cfg, 4096);
  for (std::uint32_t k = 0; k < 3; ++k) {
    const Tick begin = 1000 + ser * k;
    const Tick end = begin + ser;
    for (const Tick created : {Tick{1}, begin - 1, begin + 1, end}) {
      // Created after the last packet began, the send finds the message
      // injected and its uplink free: nothing left to demote.
      const std::uint64_t demotions = k < 2 || created < begin ? 1 : 0;
      const std::vector<Send> script = {
          Send{1000, 0, 1, 3 * 4096},
          Send{end, 0, 2, 64, created},
      };
      const std::string what = "packet " + std::to_string(k) +
                               ", competitor created at " +
                               std::to_string(created);
      expect_regimes_agree(cfg, script, demotions, what.c_str());
    }
  }
}

TEST(FlowForward, RestoredEventsKeepTheirSendPlace) {
  // Nodes 0 and 1 send 2-packet messages to node 2 in one tick; the first
  // one sent is flow-forwarded (the second finds its downlink guarded),
  // then demoted by a second send from its own node. Both first packets
  // leave the switch on the same tick, so the message sent first must
  // reach the downlink first, whichever regime restored its events.
  net::NetworkConfig cfg = irregular_config(4);
  make_deterministic(cfg);
  const Tick ser = ser_of(cfg, 4096);
  for (const net::NodeId first : {0, 1}) {
    for (const Tick demote_at : {Tick{1000} + ser / 2, Tick{1000} + ser + 20,
                                 Tick{1000} + 2 * ser - 10}) {
      const std::vector<Send> script = {
          Send{1000, first, 2, 8192},
          Send{1000, 1 - first, 2, 8192},
          Send{demote_at, first, 3, 64},
      };
      const std::string what = "node " + std::to_string(first) +
                               " sent first, demoted at " +
                               std::to_string(demote_at);
      expect_regimes_agree(cfg, script, 1, what.c_str());
    }
  }
}

TEST(FlowForward, SameTickSwitchExitsOrderBySendPlace) {
  // A demotion at t~2400 puts uplink 0 (and downlink 1) in cooldown. At
  // t=10000, 0 -> 3 takes the packet path for that cooldown while 2 -> 3
  // is flow-forwarded; their single packets leave the switch on the same
  // tick, created at the same uplink serialization end, so only the send
  // order can say which reaches downlink 3 first. Both orders.
  net::NetworkConfig cfg = irregular_config(4);
  make_deterministic(cfg);
  for (const bool packet_path_first : {true, false}) {
    std::vector<Send> script = {
        Send{1000, 0, 1, 8192},
        Send{1300, 2, 1, 4096},
        Send{10000, 0, 3, 4096},
        Send{10000, 2, 3, 4096},
    };
    if (!packet_path_first) std::swap(script[2], script[3]);
    const RunLog on = expect_regimes_agree(
        cfg, script, 2,
        packet_path_first ? "0 -> 3 sent first" : "2 -> 3 sent first");
    EXPECT_EQ(on.flowfwd_messages, 2u);  // 0 -> 1 and 2 -> 3
  }
}

}  // namespace
}  // namespace actnet
