#include "core/fabric_campaign.h"

#include <sstream>
#include <utility>
#include <vector>

#include "net/fabric.h"
#include "util/error.h"

namespace actnet::core {
namespace {

/// The pooled idle summary the calibration derives from.
constexpr const char* kCalibKey = "fabric/calib";

std::string impact_key(int pod) {
  return "fabric/pod=" + std::to_string(pod) + "/impact";
}

/// Self-clocked pod-local ping-pong: a -> b -> a, record half the round
/// trip, rest `gap`, repeat. Every callback runs in the pod's own domain,
/// so the loop never needs a cross-partition message.
struct ProbeLoop {
  net::Fabric* fab = nullptr;
  LatencyCollector* col = nullptr;
  net::NodeId a = 0;
  net::NodeId b = 0;
  net::FlowId fwd = 0;
  net::FlowId rev = 0;
  Bytes size = 0;
  Tick gap = 0;
  Tick stop = 0;
  Tick t0 = 0;

  void ping() {
    t0 = fab->domain_engine(fab->domain_of(a)).now();
    fab->send(a, b, fwd, size, [this] {
      fab->send(b, a, rev, size, [this] { pong_done(); });
    });
  }
  void pong_done() {
    const Tick now = fab->domain_engine(fab->domain_of(a)).now();
    col->add(now, units::to_us(now - t0) / 2.0);
    if (now + gap <= stop) fab->at_node(a, now + gap, [this] { ping(); });
  }
};

struct FabricRun {
  std::vector<LatencyCollector> pods;
  std::string digest;
  std::uint64_t events = 0;
  sim::PartitionedEngine::DomainStats stats;
};

FabricRun run_fabric_experiment(const FabricCampaignConfig& cfg, bool loaded) {
  net::Fabric fab(cfg.network, cfg.seed);
  const int pods = fab.pods();
  const int npp = fab.nodes() / pods;
  ACTNET_CHECK_MSG(npp >= 2, "fabric probes need >= 2 nodes per pod, got "
                                 << npp);
  FabricRun out;
  out.pods.resize(static_cast<std::size_t>(pods));
  std::vector<ProbeLoop> probes(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    ProbeLoop& pl = probes[static_cast<std::size_t>(p)];
    pl.fab = &fab;
    pl.col = &out.pods[static_cast<std::size_t>(p)];
    pl.a = p * npp;
    pl.b = p * npp + 1;
    pl.fwd = fab.allocate_flows(1);
    pl.rev = fab.allocate_flows(1);
    pl.size = cfg.probe_size;
    pl.gap = cfg.probe_gap;
    pl.stop = cfg.total();
    fab.at_node(pl.a, 0, [&pl] { pl.ping(); });
  }

  if (loaded && pods > 1 && cfg.bg_interval > 0) {
    // Fixed-cadence cross-pod bulk senders, pre-scheduled at setup so the
    // load needs no cross-domain control flow either: pod p streams to pod
    // p+1, loading every pod's uplink trunk and downlink trunk equally.
    // The sender is a third node when the pod has one, so the probe NICs
    // stay uncontended and the interference is all at the shared trunks
    // and switch ports — the paper's contended-switch topology.
    for (int p = 0; p < pods; ++p) {
      const int off = npp > 2 ? 2 : 1;
      const net::NodeId src = p * npp + off;
      const net::NodeId dst = ((p + 1) % pods) * npp + off;
      const net::FlowId flow = fab.allocate_flows(1);
      for (Tick t = cfg.bg_interval; t < cfg.total(); t += cfg.bg_interval)
        fab.at_node(src, t, [&fab, src, dst, flow, size = cfg.bg_size] {
          fab.send(src, dst, flow, size, {});
        });
    }
  }

  out.events = fab.run_until(cfg.total());
  out.digest = fab.digest();
  out.stats = fab.engine().total_stats();
  return out;
}

}  // namespace

FabricCampaign::FabricCampaign(FabricCampaignConfig config)
    : config_(std::move(config)), db_(config_.cache_path) {
  pod_impact_.resize(static_cast<std::size_t>(pods()));
  pod_impact_ready_.assign(static_cast<std::size_t>(pods()), false);
  db_.bind_fingerprint(fingerprint());
}

std::string FabricCampaign::fingerprint() const {
  const net::NetworkConfig& net = config_.network;
  const net::OutputQueuedConfig& oq = net.output_queued;
  std::ostringstream os;
  os << "actnet-fabric-v2|w=" << config_.window << "|u=" << config_.warmup
     << "|s=" << config_.seed << "|ps=" << config_.probe_size
     << "|pg=" << config_.probe_gap << "|bs=" << config_.bg_size
     << "|bi=" << config_.bg_interval << "|net.n=" << net.nodes
     << "|net.pods=" << net.pods << "|net.spines=" << net.spines
     << "|net.k=" << net.k << "|net.tf=" << net.trunk_factor
     << "|net.tprop=" << net.trunk_propagation << "|net.bw="
     << net.link_bandwidth << "|net.prop=" << net.link_propagation
     << "|net.mtu=" << net.mtu << "|net.rxoh=" << net.recv_overhead
     << "|net.q=" << net.drr_quantum << "|sw.rl=" << oq.routing_latency
     << "|sw.jm=" << oq.jitter_mean_ns << "|sw.js=" << oq.jitter_stddev_ns
     << "|sw.tp=" << oq.tail_prob << "|sw.to=" << oq.tail_offset_ns
     << "|sw.tx=" << oq.tail_mean_excess_ns;
  // Deliberately NOT folded in: `workers`. It is ignored, so caches are
  // shared across its values.
  return os.str();
}

const Calibration& FabricCampaign::calibration() {
  if (calibration_) return *calibration_;
  if (const auto cached = db_.get(kCalibKey); cached.has_value()) {
    if (const auto idle = LatencySummary::try_deserialize(*cached))
      calibration_ = Calibration::of(*idle);
    if (calibration_) return *calibration_;
    db_.invalidate(kCalibKey);
  }
  FabricRun run = run_fabric_experiment(config_, /*loaded=*/false);
  std::vector<LatencySample> all;
  for (const LatencyCollector& col : run.pods)
    all.insert(all.end(), col.samples().begin(), col.samples().end());
  calibration_ =
      Calibration::of(summarize(all, config_.warmup, config_.total()));
  ACTNET_CHECK_MSG(calibration_.has_value(),
                   "fabric calibration produced no probe samples (window too "
                   "short for the probe gap?)");
  db_.put(kCalibKey, calibration_->idle.serialize());
  return *calibration_;
}

const LatencySummary& FabricCampaign::impact_of_pod(int pod) {
  ACTNET_CHECK(pod >= 0 && pod < pods());
  const auto p = static_cast<std::size_t>(pod);
  if (pod_impact_ready_[p]) return pod_impact_[p];
  if (const auto cached = db_.get(impact_key(pod)); cached.has_value()) {
    if (auto s = LatencySummary::try_deserialize(*cached); s.has_value()) {
      pod_impact_[p] = *std::move(s);
      pod_impact_ready_[p] = true;
      return pod_impact_[p];
    }
    db_.invalidate(impact_key(pod));
  }
  run_loaded();
  return pod_impact_[p];
}

double FabricCampaign::utilization_of_pod(int pod) {
  return estimate_utilization(impact_of_pod(pod), calibration());
}

const FabricRunInfo& FabricCampaign::loaded_run_info() {
  if (!loaded_.ran) run_loaded();
  return loaded_;
}

void FabricCampaign::run_loaded() {
  FabricRun run = run_fabric_experiment(config_, /*loaded=*/true);
  for (int p = 0; p < pods(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    pod_impact_[i] =
        summarize(run.pods[i].samples(), config_.warmup, config_.total());
    pod_impact_ready_[i] = true;
    db_.put(impact_key(p), pod_impact_[i].serialize());
  }
  loaded_.ran = true;
  loaded_.digest = std::move(run.digest);
  loaded_.events = run.events;
  loaded_.stats = run.stats;
}

}  // namespace actnet::core
