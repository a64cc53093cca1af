#include "core/probes.h"

#include <sstream>

#include "obs/metrics.h"
#include "sim/task.h"
#include "util/error.h"

namespace actnet::core {
namespace {

constexpr int kImpactTag = 2001;
constexpr int kCompressionTag = 2002;

sim::Task impact_initiator(mpi::RankCtx& ctx, ImpactConfig cfg,
                           LatencyCollector* collector,
                           obs::Counter& samples, int tpn) {
  const int partner = ctx.rank() + tpn;
  while (!ctx.stop_requested()) {
    const Tick t0 = ctx.now();
    mpi::Request reply = co_await ctx.irecv(partner, kImpactTag);
    mpi::Request ping = co_await ctx.isend(partner, kImpactTag,
                                           cfg.message_bytes);
    co_await ctx.wait(ping);
    co_await ctx.wait(reply);
    // Half the round trip = one-way latency of a single packet, the W the
    // queue model inverts.
    collector->add(ctx.now(), units::to_us(ctx.now() - t0) / 2.0);
    samples.inc();
    co_await ctx.sleep(cfg.sleep);
  }
}

sim::Task impact_echo(mpi::RankCtx& ctx, ImpactConfig cfg, int tpn) {
  const int partner = ctx.rank() - tpn;
  while (!ctx.stop_requested()) {
    co_await ctx.recv(partner, kImpactTag);
    co_await ctx.send(partner, kImpactTag, cfg.message_bytes);
  }
}

sim::Task impact_idle(mpi::RankCtx& ctx, ImpactConfig cfg) {
  // A rank on an unpaired trailing node (odd node count) just sleeps.
  while (!ctx.stop_requested()) co_await ctx.sleep(cfg.sleep);
}

sim::Task compression_body(mpi::RankCtx& ctx, CompressionConfig cfg,
                           int tpn) {
  const int n = ctx.size();
  const int rank = ctx.rank();
  ACTNET_CHECK(cfg.partners >= 1);
  ACTNET_CHECK(cfg.messages >= 1);
  for (int p = 0; p < cfg.partners; ++p)
    ACTNET_CHECK_MSG(tpn * (p + 1) % n != 0,
                     "partner distance wraps to self; reduce P");
  while (!ctx.stop_requested()) {
    std::vector<mpi::Request> reqs;
    reqs.reserve(2 * cfg.partners * cfg.messages);
    for (int p = 0; p < cfg.partners; ++p) {
      const int dist = tpn * (p + 1);
      const int recv_from = (rank + dist) % n;      // succeeding node
      const int send_to = (rank - dist + n) % n;    // preceding node
      for (int m = 0; m < cfg.messages; ++m) {
        reqs.push_back(co_await ctx.irecv(recv_from, kCompressionTag));
        reqs.push_back(
            co_await ctx.isend(send_to, kCompressionTag, cfg.message_bytes));
      }
      co_await ctx.sleep_cycles(cfg.sleep_cycles);
    }
    co_await ctx.wait_all(std::move(reqs));
    ctx.mark_iteration();
  }
}

}  // namespace

mpi::RankProgram make_impact_program(ImpactConfig config,
                                     LatencyCollector* collector,
                                     int ranks_per_node) {
  ACTNET_CHECK(collector != nullptr);
  ACTNET_CHECK(ranks_per_node > 0);
  static obs::Counter& samples =
      obs::default_registry().counter("core.probe.samples");
  return [config, collector, ranks_per_node](mpi::RankCtx& ctx) {
    const int tpn = ranks_per_node;
    const int node = ctx.rank() / tpn;
    const int nodes = ctx.size() / tpn;
    if (node % 2 == 0 && node + 1 < nodes)
      return impact_initiator(ctx, config, collector, samples, tpn);
    if (node % 2 == 1) return impact_echo(ctx, config, tpn);
    return impact_idle(ctx, config);
  };
}

std::string CompressionConfig::label() const {
  std::ostringstream os;
  os << "P" << partners << "_B" << sleep_cycles << "_M" << messages;
  // The paper's size is left out, so its labels (and cache keys) keep
  // their bytes.
  if (message_bytes != CompressionConfig{}.message_bytes)
    os << "_S" << message_bytes;
  return os.str();
}

std::vector<CompressionConfig> compression_paper_grid() {
  std::vector<CompressionConfig> grid;
  for (int m : {1, 10})
    for (double b : {2.5e4, 2.5e5, 2.5e6, 2.5e7})
      for (int p : {1, 4, 7, 14, 17}) {
        CompressionConfig c;
        c.partners = p;
        c.sleep_cycles = b;
        c.messages = m;
        grid.push_back(c);
      }
  ACTNET_CHECK(grid.size() == 40);
  return grid;
}

mpi::RankProgram make_compression_program(CompressionConfig config,
                                          int ranks_per_node) {
  ACTNET_CHECK(ranks_per_node > 0);
  return [config, ranks_per_node](mpi::RankCtx& ctx) {
    return compression_body(ctx, config, ranks_per_node);
  };
}

}  // namespace actnet::core
