#include "core/campaign.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/keys.h"
#include "core/probes.h"
#include "util/env.h"
#include "util/log.h"

namespace actnet::core {
namespace {

/// Bump when app tunings or protocol parameters change in a way that
/// invalidates cached measurements. v3: topology gained k-ary builder
/// parameters (k, trunk_propagation) and a partition layout — caches
/// written before those fields existed must not be served against them.
/// v4: switch-stage delays became keyed per-packet draws instead of one
/// sequential stream per switch, which moves every simulated number.
/// v5: the per-packet path folds its fixed hops (three events per packet,
/// one per message), which reorders same-tick events.
constexpr const char* kSchemaVersion = "actnet-v6";

}  // namespace

CampaignConfig CampaignConfig::from_env() {
  CampaignConfig c;
  c.opts = MeasureOptions::from_env();
  c.cache_path = util::env_string("ACTNET_CACHE", "actnet_cache.tsv");
  c.report_path = util::env_string("ACTNET_REPORT");
  return c;
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)),
      grid_(config_.compression_grid.empty() ? compression_paper_grid()
                                             : config_.compression_grid),
      db_(config_.cache_path), predictors_(make_all_predictors()) {
  db_.bind_fingerprint(fingerprint());
}

std::string Campaign::fingerprint() const {
  // Every knob that changes simulated results must be folded in: a stale
  // cache silently mixing measurements from two different networks is
  // worse than a cold one. (The fingerprint used to cover only window/
  // warmup/seed/nodes — editing e.g. the MTU kept serving old lines.)
  const net::NetworkConfig& net = config_.opts.cluster.network;
  const net::OutputQueuedConfig& oq = net.output_queued;
  std::ostringstream os;
  os << kSchemaVersion << "|w=" << config_.opts.window
     << "|u=" << config_.opts.warmup << "|s=" << config_.opts.seed
     << "|n=" << config_.opts.cluster.machine.nodes
     << "|spn=" << config_.opts.cluster.machine.sockets_per_node
     << "|cps=" << config_.opts.cluster.machine.cores_per_socket
     << "|net.n=" << net.nodes << "|net.pods=" << net.pods
     << "|net.spines=" << net.spines << "|net.tf=" << net.trunk_factor
     << "|net.k=" << net.k << "|net.tprop=" << net.trunk_propagation
     << "|part.doms=" << (net.pods > 1 ? net.pods + 1 : 1)
     << "|net.bw=" << net.link_bandwidth << "|net.prop=" << net.link_propagation
     << "|net.mtu=" << net.mtu << "|net.rxoh=" << net.recv_overhead
     << "|net.q=" << net.drr_quantum
     << "|sw.kind=" << static_cast<int>(net.switch_kind)
     << "|sw.rl=" << oq.routing_latency << "|sw.jm=" << oq.jitter_mean_ns
     << "|sw.js=" << oq.jitter_stddev_ns << "|sw.tp=" << oq.tail_prob
     << "|sw.to=" << oq.tail_offset_ns << "|sw.tx=" << oq.tail_mean_excess_ns
     << "|sq.m=" << net.sq_service_mean_ns
     << "|sq.s=" << net.sq_service_stddev_ns
     << "|loc.bw=" << net.local_bandwidth << "|loc.lat=" << net.local_latency;
  return os.str();
}

const Calibration& Campaign::calibration() {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (calibrated_) return calibration_;
  }
  if (const auto cached = db_.get(keys::calibration()); cached.has_value()) {
    // A cached value that no longer decodes (torn write, bit rot that
    // survived line framing) is a miss, not a crash: drop it, re-measure.
    if (auto calib = Calibration::try_deserialize(*cached);
        calib.has_value()) {
      std::lock_guard<std::mutex> lock(memo_mu_);
      if (!calibrated_) {
        calibration_ = *std::move(calib);
        calibrated_ = true;
      }
      return calibration_;
    }
    db_.invalidate(keys::calibration());
  }
  record_calibration(calibrate(config_.opts));
  return calibration_;
}

void Campaign::record_calibration(const Calibration& calib) {
  db_.put(keys::calibration(), calib.serialize());
  std::lock_guard<std::mutex> lock(memo_mu_);
  calibration_ = calib;
  calibrated_ = true;
}

const LatencySummary& Campaign::impact_of(const Workload& workload) {
  const std::string label = workload.label();
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = impact_memo_.find(label); it != impact_memo_.end())
      return it->second;
  }
  if (const auto cached = db_.get(keys::impact(workload));
      cached.has_value()) {
    if (auto summary = LatencySummary::try_deserialize(*cached);
        summary.has_value()) {
      std::lock_guard<std::mutex> lock(memo_mu_);
      return impact_memo_.emplace(label, *std::move(summary)).first->second;
    }
    db_.invalidate(keys::impact(workload));
  }
  record_impact(workload, run_impact_experiment(workload, config_.opts));
  std::lock_guard<std::mutex> lock(memo_mu_);
  return impact_memo_.at(label);
}

void Campaign::record_impact(const Workload& workload,
                             const LatencySummary& summary) {
  db_.put(keys::impact(workload), summary.serialize());
  std::lock_guard<std::mutex> lock(memo_mu_);
  impact_memo_.emplace(workload.label(), summary);
}

double Campaign::utilization_of(const Workload& workload) {
  return estimate_utilization(impact_of(workload), calibration());
}

const std::vector<CompressionProfile>& Campaign::compression_table() {
  if (!compression_table_.empty()) return compression_table_;
  for (const CompressionConfig& cfg : grid_) {
    CompressionProfile profile;
    profile.config = cfg;
    profile.impact = impact_of(Workload::of_compression(cfg));
    profile.utilization = estimate_utilization(profile.impact, calibration());
    compression_table_.push_back(std::move(profile));
  }
  return compression_table_;
}

double Campaign::baseline_us(apps::AppId app) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = baselines_.find(app); it != baselines_.end())
      return it->second;
  }
  if (const auto cached = db_.get_double(keys::baseline(app));
      cached.has_value()) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    return baselines_.emplace(app, *cached).first->second;
  }
  const double value = measure_app_alone_us(app, config_.opts);
  record_baseline(app, value);
  return value;
}

void Campaign::record_baseline(apps::AppId app, double iter_us) {
  db_.put_double(keys::baseline(app), iter_us);
  std::lock_guard<std::mutex> lock(memo_mu_);
  baselines_.emplace(app, iter_us);
}

void Campaign::record_degradation(apps::AppId app, const CompressionConfig& cfg,
                                  double iter_us) {
  db_.put_double(keys::degradation(app, cfg), iter_us);
}

const AppProfile& Campaign::app_profile(apps::AppId app) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = app_profiles_.find(app); it != app_profiles_.end())
      return it->second;
  }

  const auto& info = apps::app_info(app);
  AppProfile profile;
  profile.id = app;
  profile.name = info.name;
  profile.impact = impact_of(Workload::of_app(app));
  profile.utilization = estimate_utilization(profile.impact, calibration());
  profile.baseline_iter_us = baseline_us(app);
  for (const CompressionProfile& comp : compression_table()) {
    const std::string key = keys::degradation(app, comp.config);
    double iter_us = 0.0;
    if (const auto cached = db_.get_double(key); cached.has_value()) {
      iter_us = *cached;
    } else {
      iter_us =
          measure_app_vs_compression_us(app, comp.config, config_.opts);
      record_degradation(app, comp.config, iter_us);
    }
    profile.degradation_pct.push_back(
        slowdown_pct(iter_us, profile.baseline_iter_us));
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  return app_profiles_.emplace(app, std::move(profile)).first->second;
}

PairTimes Campaign::pair_times(apps::AppId first, apps::AppId second) {
  const std::string key = keys::pair(first, second);
  if (const auto cached = db_.get(key); cached.has_value()) {
    if (const auto t = PairTimes::try_deserialize(*cached); t.has_value())
      return *t;
    db_.invalidate(key);
  }
  const PairTimes t = measure_pair_us(first, second, config_.opts);
  record_pair(first, second, t);
  return t;
}

void Campaign::record_pair(apps::AppId first, apps::AppId second,
                           const PairTimes& t) {
  db_.put(keys::pair(first, second), t.serialize());
}

double Campaign::measured_pair_slowdown_pct(apps::AppId victim,
                                            apps::AppId aggressor) {
  // Run each unordered pair once; read the victim's side. Self-pairs
  // average the two copies.
  const apps::AppId first = std::min(victim, aggressor);
  const apps::AppId second = std::max(victim, aggressor);
  const PairTimes t = pair_times(first, second);
  double victim_iter_us = 0.0;
  if (victim == aggressor)
    victim_iter_us = (t.first_us + t.second_us) / 2.0;
  else
    victim_iter_us = (victim == first) ? t.first_us : t.second_us;
  return slowdown_pct(victim_iter_us, baseline_us(victim));
}

std::vector<Campaign::PairPrediction> Campaign::predict_pair(
    apps::AppId victim, apps::AppId aggressor) {
  const AppProfile& v = app_profile(victim);
  const AppProfile& a = app_profile(aggressor);
  const auto& table = compression_table();
  const double measured = measured_pair_slowdown_pct(victim, aggressor);
  std::vector<PairPrediction> out;
  out.reserve(predictors_.size());
  for (const auto& model : predictors_) {
    PairPrediction p;
    p.model = model->name();
    p.predicted_pct = model->predict(v, a, table);
    p.measured_pct = measured;
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace actnet::core
