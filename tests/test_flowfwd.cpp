// Flow-level fast-forward regime (DESIGN.md §5.12).
//
// The flow-forward regime is only allowed to exist because its closed-form
// schedule lands every packet on EXACTLY the ticks the per-packet path
// would have produced, and because a demotion rebuilds EXACTLY the DRR
// state the per-packet path would have reached. These tests attack both
// claims: serial traffic must be bit-identical with the regime on or off,
// and even heavily contended traffic — demotions in every phase of a
// message's life — must match the per-packet path tick for tick, counter
// for counter, depth sample for depth sample, on the default keyed random
// switch stage and on a deterministic one. Stage delays are keyed per
// packet, so the order in which messages are admitted cannot move them.
// On the reduced paper campaign the only remaining difference is same-tick
// engine ordering; its drift is gated against the envelope in
// valid/tolerances.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "equivalence_harness.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/json.h"
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
  std::vector<std::uint64_t> depth_buckets;
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
           depth_sum == o.depth_sum && depth_buckets == o.depth_buckets &&
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
    os << " depth_count=" << l.depth_count << " depth_sum=" << l.depth_sum;
    ints("depth_buckets", l.depth_buckets);
    os << " switch=" << l.switch_packets << "/" << l.switch_bytes << "/"
       << l.switch_time;
    return os;
  }
};

/// One scripted message: issue `send(src, dst, ...)` of `size` bytes at
/// tick `at`.
struct Send {
  Tick at;
  net::NodeId src;
  net::NodeId dst;
  Bytes size;
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
    eng.schedule_at(s.at, [&net, &log, &eng, s, msg, flows] {
      net.send(s.src, s.dst, flows + static_cast<net::FlowId>(s.src), s.size,
               [&log, &eng, msg] { log.injected.emplace_back(msg, eng.now()); },
               [&log, &eng, msg] {
                 log.delivered.emplace_back(msg, eng.now());
               });
    });
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
  for (int b = 0; b < obs::Histogram::kBuckets; ++b)
    log.depth_buckets.push_back(depth.bucket(b));
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

enum class Stage { kKeyedRandom, kDeterministic };

/// The exactness properties, run on the default keyed random switch stage
/// and on the deterministic one.
class FlowForwardSwitchStage : public ::testing::TestWithParam<Stage> {
 protected:
  static net::NetworkConfig config() {
    net::NetworkConfig cfg = irregular_config(4);
    if (GetParam() == Stage::kDeterministic) make_deterministic(cfg);
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(
    SwitchStages, FlowForwardSwitchStage,
    ::testing::Values(Stage::kKeyedRandom, Stage::kDeterministic),
    [](const ::testing::TestParamInfo<Stage>& p) {
      return p.param == Stage::kKeyedRandom ? "KeyedRandom" : "Deterministic";
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

// --- eligibility and the knob ---

TEST(FlowForward, SharedQueueSwitchNeverFastForwards) {
  net::NetworkConfig cfg = irregular_config(4);
  cfg.switch_kind = net::SwitchKind::kSharedQueue;
  const RunLog on = run_script(cfg, serial_script(), /*flowfwd=*/true);
  EXPECT_EQ(on.flowfwd_messages, 0u);
  EXPECT_EQ(on.messages_delivered, serial_script().size());
}

TEST(FlowForward, EnvKnobParsesOnOffForms) {
  sim::Engine eng;
  const net::NetworkConfig cfg = irregular_config(2);
  const auto flag_means = [&](const char* v, bool expected) {
    testing::ScopedEnv env("ACTNET_FLOWFWD", v);
    net::Network n(eng, cfg, Rng(1));
    EXPECT_EQ(n.flow_forward(), expected) << "ACTNET_FLOWFWD=" << v;
  };
  flag_means("0", false);
  flag_means("off", false);
  flag_means("false", false);
  flag_means("no", false);
  flag_means("1", true);
  flag_means("on", true);
  flag_means("", true);  // empty means unset: the default
  {
    // A malformed value is a typed error naming the variable and value,
    // never a silent fallback to the default.
    testing::ScopedEnv env("ACTNET_FLOWFWD", "bogus");
    try {
      net::Network n(eng, cfg, Rng(1));
      ADD_FAILURE() << "ACTNET_FLOWFWD=bogus was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ACTNET_FLOWFWD"), std::string::npos) << what;
      EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    }
  }
  ::unsetenv("ACTNET_FLOWFWD");
  net::Network n(eng, cfg, Rng(1));
  EXPECT_TRUE(n.flow_forward());  // default on
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
  sim::Engine eng;
  net::Network net(eng, cfg, Rng(7));
  net.set_flow_forward(true);
  const net::FlowId flows = net.allocate_flows(4);
  // A demotion at ~t=1300 starts the cooldown on uplink 0 / downlink 1; a
  // send inside the cooldown window must go straight to the packet path.
  eng.schedule_at(1000, [&] { net.send(0, 1, flows, 8192, {}, {}); });
  eng.schedule_at(1300, [&] { net.send(2, 1, flows + 2, 4096, {}, {}); });
  eng.schedule_at(units::us(10), [&] { net.send(0, 1, flows, 8192, {}, {}); });
  // Well past the cooldown (25us default), flow-forward resumes.
  eng.schedule_at(units::us(100), [&] { net.send(0, 1, flows, 8192, {}, {}); });
  eng.run();
  EXPECT_EQ(net.counters().flowfwd_demotions, 1u);
  EXPECT_EQ(net.counters().flowfwd_messages, 2u);  // first and last send
  EXPECT_EQ(net.counters().messages_delivered, 4u);
}

// --- reduced campaign: flow-forward on vs off, tolerance-gated ---
//
// ImpactB's nine concurrent ping-pong pairs share switch ports. Stage
// draws are keyed per packet, so the regimes draw identical delays; what
// is left is same-tick engine ordering (events the two regimes create in a
// different order at one tick), which can reorder a flow's sends and so
// its draws. The drift envelope lives in valid/tolerances.json next to
// the predictor gates, so re-baselining it is an explicit, reviewed edit.
TEST(FlowForward, FlowForwardCampaignDriftStaysWithinEnvelope) {
  const std::optional<util::JsonValue> doc = testing::load_tolerances();
  if (!doc.has_value())
    GTEST_SKIP() << "tolerances file not reachable from test cwd";
  const util::JsonValue& env =
      doc->at("tiers").at("quick").at("equivalence");
  const double max_predicted =
      env.at("flowfwd_max_predicted_drift_pct").as_number();
  const double mean_predicted_limit =
      env.at("flowfwd_mean_predicted_drift_pct").as_number();
  const double max_measured =
      env.at("flowfwd_max_measured_drift_pct").as_number();

  const std::string on_path = testing::temp_cache("ffwd_on");
  const std::string off_path = testing::temp_cache("ffwd_off");
  // The on-run's flow-forward counters, read as deltas of the process-wide
  // registry (metrics observe, never steer: the cache bytes do not move).
  obs::Counter& ff_messages =
      obs::default_registry().counter("net.flowfwd.messages");
  obs::Counter& ff_demotions =
      obs::default_registry().counter("net.flowfwd.demotions");
  const std::uint64_t messages0 = ff_messages.value();
  const std::uint64_t demotions0 = ff_demotions.value();
  testing::run_combo(on_path, "1");
  const std::uint64_t flowfwd_messages = ff_messages.value() - messages0;
  const std::uint64_t flowfwd_demotions = ff_demotions.value() - demotions0;
  const std::string off_bytes = testing::run_combo(off_path, "0");
  ASSERT_FALSE(off_bytes.empty());

  // The regime is part of the cache fingerprint: the off-run's cache is
  // read back under the regime it was written in.
  core::Campaign on(testing::reduced_config(on_path));
  core::CampaignConfig off_cfg = testing::reduced_config(off_path);
  off_cfg.opts.cluster.flow_forward = false;
  core::Campaign off(off_cfg);
  ASSERT_EQ(on.db().size(), off.db().size());  // both caches were kept
  double worst_predicted = 0.0;
  double worst_measured = 0.0;
  double sum_predicted = 0.0;
  std::size_t cells = 0;
  const auto& apps = apps::all_apps();
  for (const auto& victim : apps)
    for (const auto& aggressor : apps) {
      const auto pa = on.predict_pair(victim.id, aggressor.id);
      const auto pb = off.predict_pair(victim.id, aggressor.id);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t m = 0; m < pa.size(); ++m) {
        ASSERT_EQ(pa[m].model, pb[m].model);
        const double dp = std::abs(pa[m].predicted_pct - pb[m].predicted_pct);
        const double dm = std::abs(pa[m].measured_pct - pb[m].measured_pct);
        worst_predicted = std::max(worst_predicted, dp);
        worst_measured = std::max(worst_measured, dm);
        sum_predicted += dp;
        ++cells;
      }
    }
  ASSERT_GT(cells, 0u);
  const double mean_predicted = sum_predicted / static_cast<double>(cells);
  std::fprintf(stderr,
               "flowfwd drift: worst_measured=%.4f worst_predicted=%.4f "
               "mean_predicted=%.4f over %zu cells; on-run flow-forwarded "
               "%llu messages, demoted %llu\n",
               worst_measured, worst_predicted, mean_predicted, cells,
               static_cast<unsigned long long>(flowfwd_messages),
               static_cast<unsigned long long>(flowfwd_demotions));
  // Measured impacts are simulation ground truth: the regimes run the same
  // dynamics and draws, so the drift is small.
  EXPECT_LE(worst_measured, max_measured)
      << "flow-forward regime shifted measurements beyond the envelope";
  // Predictions pass through the paper's models, which amplify calibration
  // noise near their knees, so the per-cell bound sits above the measured
  // one and the mean carries the real gate.
  EXPECT_LE(mean_predicted, mean_predicted_limit)
      << "flow-forward regime shifted predictions beyond the envelope";
  EXPECT_LE(worst_predicted, max_predicted)
      << "flow-forward regime shifted a prediction beyond the envelope";
  // The comparison is vacuous unless the on-run actually flow-forwarded
  // and demoted messages (keyed draws may well make the regimes agree).
  EXPECT_GT(flowfwd_messages, 0u);
  EXPECT_GT(flowfwd_demotions, 0u);

  std::filesystem::remove(on_path);
  std::filesystem::remove(off_path);
}

}  // namespace
}  // namespace actnet
