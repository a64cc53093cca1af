#include "core/campaign.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/keys.h"
#include "core/parallel.h"
#include "core/probes.h"
#include "util/env.h"
#include "util/error.h"
#include "util/parse.h"

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
/// v6: switch jitter is drawn from a precomputed table of its integer CDF.
/// v7: the calibration record is the idle ImpactB summary itself, and the
/// idle impact has no record of its own.
constexpr const char* kSchemaVersion = "actnet-v8";

template <class T>
std::optional<T> decode(const std::string& value) {
  if constexpr (std::is_same_v<T, double>) {
    return util::parse_double(value);
  } else if constexpr (std::is_same_v<T, Calibration>) {
    const auto idle = LatencySummary::try_deserialize(value);
    return idle ? Calibration::of(*idle) : std::nullopt;
  } else {
    return T::try_deserialize(value);
  }
}

template <class T>
bool decodes(const std::string& value) {
  return decode<T>(value).has_value();
}

/// The cached value of `key`; drop_cached or a finished job left it there.
template <class T>
T decoded(const MeasurementDb& db, const std::string& key) {
  std::optional<T> v = decode<T>(db.get(key).value_or(""));
  ACTNET_CHECK_MSG(v.has_value(), "measurement '" << key << "' does not decode");
  return *std::move(v);
}

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
  // worse than a cold one. The flow-forward regime is appended only when
  // off, so default fingerprints keep their bytes.
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

Experiment Campaign::calibration_experiment() {
  return {keys::calibration(), decodes<Calibration>, [this] {
            db_.put(keys::calibration(),
                    calibrate(config_.opts).idle.serialize());
          }};
}

Experiment Campaign::impact_experiment(const Workload& workload) {
  return {keys::impact(workload), decodes<LatencySummary>, [this, workload] {
            db_.put(keys::impact(workload),
                    run_impact_experiment(workload, config_.opts).serialize());
          }};
}

Experiment Campaign::baseline_experiment(apps::AppId app) {
  return {keys::baseline(app), decodes<double>, [this, app] {
            db_.put_double(keys::baseline(app),
                           measure_app_alone_us(app, config_.opts));
          }};
}

Experiment Campaign::degradation_experiment(apps::AppId app,
                                            const CompressionConfig& cfg) {
  return {keys::degradation(app, cfg), decodes<double>, [this, app, cfg] {
            db_.put_double(
                keys::degradation(app, cfg),
                measure_app_vs_compression_us(app, cfg, config_.opts));
          }};
}

Experiment Campaign::pair_experiment(apps::AppId first, apps::AppId second) {
  return {keys::pair(first, second), decodes<PairTimes>, [this, first, second] {
            db_.put(keys::pair(first, second),
                    measure_pair_us(first, second, config_.opts).serialize());
          }};
}

std::vector<std::string> Campaign::drop_cached(
    std::vector<Experiment>& wanted) {
  std::vector<std::string> cached;
  std::erase_if(wanted, [&](const Experiment& e) {
    const auto value = db_.get(e.key);
    if (!value.has_value()) return false;
    if (!e.decodes(*value)) {
      db_.invalidate(e.key);
      return false;
    }
    cached.push_back(e.key);
    return true;
  });
  return cached;
}

void Campaign::measure_missing(const char* label,
                               std::vector<Experiment> wanted) {
  std::vector<std::string> cached = drop_cached(wanted);
  if (!wanted.empty())
    ParallelRunner(*this).run(label, std::move(wanted), std::move(cached));
}

const Calibration& Campaign::calibration() {
  if (!calibration_) {
    measure_missing("calibration", {calibration_experiment()});
    calibration_ = decoded<Calibration>(db_, keys::calibration());
  }
  return *calibration_;
}

const LatencySummary& Campaign::impact_of(const Workload& workload) {
  if (workload.kind == Workload::Kind::kIdle) return calibration().idle;
  const std::string label = workload.label();
  if (const auto it = impact_memo_.find(label); it != impact_memo_.end())
    return it->second;
  measure_missing("impact", {impact_experiment(workload)});
  return impact_memo_
      .emplace(label, decoded<LatencySummary>(db_, keys::impact(workload)))
      .first->second;
}

double Campaign::utilization_of(const Workload& workload) {
  return estimate_utilization(impact_of(workload), calibration());
}

const std::vector<CompressionProfile>& Campaign::compression_table() {
  if (!compression_table_.empty()) return compression_table_;
  std::vector<Experiment> wanted = {calibration_experiment()};
  for (const CompressionConfig& cfg : grid_)
    wanted.push_back(impact_experiment(Workload::of_compression(cfg)));
  measure_missing("compression_table", std::move(wanted));
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
  if (const auto it = baselines_.find(app); it != baselines_.end())
    return it->second;
  measure_missing("baseline", {baseline_experiment(app)});
  return baselines_.emplace(app, decoded<double>(db_, keys::baseline(app)))
      .first->second;
}

const AppProfile& Campaign::app_profile(apps::AppId app) {
  if (const auto it = app_profiles_.find(app); it != app_profiles_.end())
    return it->second;

  // One batch for everything the profile reads: the compression table's
  // experiments, the app's impact and baseline, and its degradations.
  std::vector<Experiment> wanted = {calibration_experiment()};
  for (const CompressionConfig& cfg : grid_)
    wanted.push_back(impact_experiment(Workload::of_compression(cfg)));
  wanted.push_back(impact_experiment(Workload::of_app(app)));
  wanted.push_back(baseline_experiment(app));
  for (const CompressionConfig& cfg : grid_)
    wanted.push_back(degradation_experiment(app, cfg));
  measure_missing("app_profile", std::move(wanted));

  AppProfile profile;
  profile.id = app;
  profile.name = apps::app_info(app).name;
  profile.impact = impact_of(Workload::of_app(app));
  profile.utilization = estimate_utilization(profile.impact, calibration());
  profile.baseline_iter_us = baseline_us(app);
  for (const CompressionProfile& comp : compression_table())
    profile.degradation_pct.push_back(slowdown_pct(
        decoded<double>(db_, keys::degradation(app, comp.config)),
        profile.baseline_iter_us));
  return app_profiles_.emplace(app, std::move(profile)).first->second;
}

double Campaign::measured_pair_slowdown_pct(apps::AppId victim,
                                            apps::AppId aggressor) {
  // Run each unordered pair once; read the victim's side. Self-pairs
  // average the two copies.
  const apps::AppId first = std::min(victim, aggressor);
  const apps::AppId second = std::max(victim, aggressor);
  measure_missing("pair", {pair_experiment(first, second),
                           baseline_experiment(victim)});
  const PairTimes t = decoded<PairTimes>(db_, keys::pair(first, second));
  const double victim_iter_us = victim == aggressor
                                    ? (t.first_us + t.second_us) / 2.0
                                    : (victim == first ? t.first_us
                                                       : t.second_us);
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
