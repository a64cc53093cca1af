// Partitioned fabric runtime (DESIGN.md §5.14): conformance & determinism.
//
// The partition layout is fixed by the topology, per-packet randomness is
// keyed to (flow, packet), and the channel drain runs in a fixed order, so
// a partitioned run is a pure function of its inputs. These tests check
// that at three levels: the runtime's own ordering/invariant contracts, a
// fabric campaign run twice that must be byte-identical on digests and
// cache files, and a randomized-topology fuzz over 50 random fabrics that
// must deliver every send and repeat its digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric_campaign.h"
#include "equivalence_harness.h"
#include "net/fabric.h"
#include "sim/partition.h"
#include "util/error.h"

namespace actnet {
namespace {

using testing::Lcg;

// --- runtime contracts -------------------------------------------------

TEST(PartitionedEngine, SerialSingleDomainMatchesPlainEngine) {
  sim::PartitionedEngine pe(1, /*lookahead=*/100);
  std::vector<Tick> fired;
  pe.domain(0).schedule_at(5, [&] { fired.push_back(5); });
  pe.domain(0).schedule_at(250, [&] { fired.push_back(250); });
  EXPECT_EQ(pe.run_until(1'000), 2u);
  EXPECT_EQ(fired, (std::vector<Tick>{5, 250}));
  EXPECT_EQ(pe.now(), 1'000);
}

TEST(PartitionedEngine, CrossDomainPostRunsAtItsTimestamp) {
  sim::PartitionedEngine pe(2, /*lookahead=*/100);
  Tick seen = -1;
  pe.domain(0).schedule_at(40, [&] {
    pe.post(0, 1, 140, [&seen, &pe] { seen = pe.domain(1).now(); });
  });
  pe.run_until(1'000);
  EXPECT_EQ(seen, 140);
  EXPECT_EQ(pe.stats(0).messages_out, 1u);
  EXPECT_EQ(pe.stats(1).messages_in, 1u);
}

TEST(PartitionedEngine, DrainOrderIsSourceDomainThenPostOrder) {
  // Two source domains post to a third at the SAME timestamp; delivery
  // must be src-ascending, post order within each source — the fixed
  // drain order that makes same-tick cross-domain ties deterministic.
  sim::PartitionedEngine pe(3, /*lookahead=*/100);
  std::vector<int> order;
  pe.domain(1).schedule_at(10, [&] {
    pe.post(1, 2, 110, [&order] { order.push_back(10); });
    pe.post(1, 2, 110, [&order] { order.push_back(11); });
  });
  pe.domain(0).schedule_at(10, [&] {
    pe.post(0, 2, 110, [&order] { order.push_back(0); });
    pe.post(0, 2, 110, [&order] { order.push_back(1); });
  });
  pe.run_until(500);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

TEST(PartitionedEngine, PostBelowSafeTimeThrows) {
  sim::PartitionedEngine pe(2, /*lookahead=*/100);
  // Setup-time posts may carry any current-or-future timestamp...
  pe.post(0, 1, 0, [] {});
  EXPECT_EQ(pe.run_until(50), 1u);
  // ...but an event inside a window may not post below the safe horizon:
  // the destination may already have run past that tick this window.
  pe.domain(0).schedule_at(60, [&] { pe.post(0, 1, 60, [] {}); });
  EXPECT_THROW(pe.run_until(200), Error);
}

TEST(PartitionedEngine, SafeTimeTracksWindowProgress) {
  sim::PartitionedEngine pe(2, /*lookahead=*/250);
  EXPECT_EQ(pe.safe_time(), 0);
  Tick safe_at_event = -1;
  pe.domain(0).schedule_at(100, [&] { safe_at_event = pe.safe_time(); });
  pe.run_until(1'000);
  // The event's window is [100, 349]; during it the safe horizon is 350.
  EXPECT_EQ(safe_at_event, 350);
  EXPECT_GE(pe.safe_time(), 350);
}

TEST(PartitionedEngine, StallWindowsAreCountedPerDomain) {
  sim::PartitionedEngine pe(2, /*lookahead=*/100);
  // Domain 0 works; domain 1 has nothing: its windows are stalls.
  pe.domain(0).schedule_at(10, [] {});
  pe.domain(0).schedule_at(500, [] {});
  pe.run_until(1'000);
  EXPECT_GT(pe.stats(0).windows, 0u);
  EXPECT_GT(pe.stats(1).barrier_stalls, 0u);
  EXPECT_EQ(pe.stats(1).windows, 0u);
}

/// Random cross-domain ping workload whose execution log must repeat run
/// to run: every event logs (domain, id, tick) into its domain's slice,
/// and children hop domains via post() with timestamps >= safe_time by
/// construction (now + lookahead).
struct HopLog {
  std::vector<std::vector<std::pair<std::uint64_t, Tick>>> per_domain;
};

HopLog run_hops(int domains, std::uint64_t seed) {
  constexpr Tick kLookahead = 200;
  sim::PartitionedEngine pe(domains, kLookahead);
  HopLog log;
  log.per_domain.resize(static_cast<std::size_t>(domains));
  struct Ctx {
    sim::PartitionedEngine* pe;
    HopLog* log;
    std::uint64_t seed;
    /// Per-domain spawn counters: child ids derive only from the spawning
    /// domain's own history, never from a global counter shared across
    /// domains.
    std::vector<std::uint64_t> spawned;

    void hop(int d, std::uint64_t id) {
      auto& eng = pe->domain(d);
      log->per_domain[static_cast<std::size_t>(d)].emplace_back(id,
                                                               eng.now());
      Lcg g{seed ^ (id * 0x9e3779b97f4a7c15ull) ^
            static_cast<std::uint64_t>(d)};
      auto& n = spawned[static_cast<std::size_t>(d)];
      if (n >= 120) return;
      const std::uint64_t child =
          1'000 + static_cast<std::uint64_t>(d) * 1'000'000 + n++;
      const int dst = static_cast<int>(g.next() % pe->domains());
      const Tick delay =
          kLookahead + static_cast<Tick>(g.next() % 3'000);
      if (dst == d) {
        eng.schedule_in(delay, [this, d, child] { hop(d, child); });
      } else {
        pe->post(d, dst, eng.now() + delay,
                 [this, dst, child] { hop(dst, child); });
      }
    }
  } ctx{&pe, &log, seed,
        std::vector<std::uint64_t>(static_cast<std::size_t>(domains), 0)};
  for (int d = 0; d < domains; ++d) {
    const auto root = static_cast<std::uint64_t>(d);
    pe.domain(d).schedule_at(static_cast<Tick>(seed % 97),
                             [&ctx, d, root] { ctx.hop(d, root); });
  }
  pe.run_until(1'000'000);
  return log;
}

TEST(PartitionedEngine, HopExecutionIsRepeatable) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const HopLog first = run_hops(/*domains=*/5, seed);
    std::size_t total = 0;
    for (const auto& d : first.per_domain) total += d.size();
    ASSERT_GT(total, 300u) << "seed " << seed;
    ASSERT_EQ(run_hops(5, seed).per_domain, first.per_domain)
        << "seed " << seed;
  }
}

// --- fabric campaign: bytes must repeat run to run ----------------------

struct FabricOutcome {
  std::string digest;
  std::string cache;
  std::uint64_t events = 0;
};

FabricOutcome run_fabric_campaign() {
  const std::string path = testing::temp_cache("fabric_identity");
  std::filesystem::remove(path);
  FabricOutcome out;
  {
    core::FabricCampaignConfig cfg;
    cfg.window = units::ms(1);
    cfg.warmup = units::ms(0.25);
    cfg.cache_path = path;
    core::FabricCampaign camp(cfg);
    camp.calibration();
    for (int p = 0; p < camp.pods(); ++p) {
      const double rho = camp.utilization_of_pod(p);
      EXPECT_GT(rho, 0.0) << "pod " << p;
      EXPECT_LT(rho, 1.0) << "pod " << p;
    }
    out.digest = camp.loaded_run_info().digest;
    out.events = camp.loaded_run_info().events;
  }
  out.cache = testing::file_bytes(path);
  std::filesystem::remove(path);
  return out;
}

TEST(PartitionedFabric, CampaignIsByteIdenticalAcrossRuns) {
  const FabricOutcome ref = run_fabric_campaign();
  ASSERT_FALSE(ref.digest.empty());
  ASSERT_FALSE(ref.cache.empty());
  ASSERT_GT(ref.events, 1'000u);

  // Per-packet RNG is keyed to (flow, packet) and the drain order is
  // fixed, so a second run must reproduce the digest — including the
  // depth histogram — and the cache byte for byte.
  const FabricOutcome got = run_fabric_campaign();
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.cache, ref.cache);
  EXPECT_EQ(got.events, ref.events);
}

TEST(PartitionedFabric, CacheIsSharedAcrossWorkerValues) {
  // The fabric fingerprint excludes the ignored `workers` field: a cache
  // written with workers=1 must satisfy a workers=4 campaign with no
  // re-measurement.
  const std::string path = testing::temp_cache("fabric_shared");
  std::filesystem::remove(path);
  core::FabricCampaignConfig cfg;
  cfg.window = units::ms(1);
  cfg.warmup = units::ms(0.25);
  cfg.cache_path = path;
  double serial_rho = 0.0;
  {
    core::FabricCampaignConfig c1 = cfg;
    c1.workers = 1;
    core::FabricCampaign camp(c1);
    serial_rho = camp.utilization_of_pod(0);
  }
  {
    core::FabricCampaignConfig c4 = cfg;
    c4.workers = 4;
    core::FabricCampaign camp(c4);
    // The first campaign's entries are visible: the fingerprint matched,
    // so the workers=4 campaign binds to (not clears) the workers=1 cache.
    EXPECT_TRUE(camp.db().get("fabric/calib").has_value());
    EXPECT_TRUE(camp.db().get("fabric/pod=0/impact").has_value());
    EXPECT_DOUBLE_EQ(camp.utilization_of_pod(0), serial_rho);
  }
  std::filesystem::remove(path);
}

// --- randomized-topology fuzz: delivery and repeatable digests ---------

std::string run_random_fabric(const net::NetworkConfig& cfg,
                              std::uint64_t seed) {
  net::Fabric fab(cfg, seed);
  Lcg g{seed * 0x2545f4914f6cdd1dull + 1};
  const int sends = 20 + static_cast<int>(g.next() % 21);
  int delivered = 0;
  for (int i = 0; i < sends; ++i) {
    const auto src = static_cast<net::NodeId>(g.next() % cfg.nodes);
    auto dst = static_cast<net::NodeId>(g.next() % cfg.nodes);
    if (dst == src) dst = (dst + 1) % cfg.nodes;
    const Bytes size = 64 + static_cast<Bytes>(g.next() % 20'000);
    const Tick at = static_cast<Tick>(g.next() % units::us(100));
    const net::FlowId flow = fab.allocate_flows(1);
    fab.at_node(src, at, [&fab, &delivered, src, dst, flow, size] {
      fab.send(src, dst, flow, size, [&delivered] { ++delivered; });
    });
  }
  fab.run_until(units::ms(1));
  EXPECT_EQ(delivered, sends);
  return fab.digest();
}

TEST(PartitionedFabric, RandomTopologiesDeliverAndRepeat) {
  constexpr int kConfigs = 50;
  Lcg g{0xfab1'2345'6789ull};
  for (int i = 0; i < kConfigs; ++i) {
    const int k = 2 * (1 + static_cast<int>(g.next() % 3));  // 2, 4, 6
    net::NetworkConfig cfg = net::NetworkConfig::k_ary_fat_tree(k);
    // Jitter the knobs that shape packetization and window geometry.
    const Bytes mtus[] = {1024, 1500, 4096};
    cfg.mtu = mtus[g.next() % 3];
    cfg.trunk_propagation = 100 + static_cast<Tick>(g.next() % 900);
    const std::uint64_t seed = g.next();
    g.next();  // unused draw, kept so the 50 configs stay the same
    const std::string first = run_random_fabric(cfg, seed);
    ASSERT_EQ(run_random_fabric(cfg, seed), first)
        << "config " << i << ": k=" << k << " mtu=" << cfg.mtu
        << " tprop=" << cfg.trunk_propagation << " seed=" << seed;
  }
}

}  // namespace
}  // namespace actnet
