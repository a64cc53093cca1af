#include "valid/conformance.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>

#include "core/parallel.h"
#include "obs/profile.h"
#include "queueing/distributions.h"
#include "queueing/mg1.h"
#include "queueing/mg1_sim.h"
#include "util/error.h"
#include "util/log.h"
#include "util/parse.h"

namespace actnet::valid {

PerturbSpec PerturbSpec::parse(const std::string& text) {
  PerturbSpec p;
  if (text.empty()) return p;
  const auto sep = text.find(':');
  ACTNET_CHECK_MSG(sep != std::string::npos && sep > 0,
                   "perturbation spec must be Model:factor, got '" << text
                                                                   << "'");
  p.model = text.substr(0, sep);
  const auto factor = util::parse_number<double>(text.substr(sep + 1));
  ACTNET_CHECK_MSG(factor.has_value() && *factor > 0.0,
                   "bad perturbation factor in '" << text << "'");
  p.scale = *factor;
  return p;
}

std::vector<PairErrorRecord> collect_pair_errors(
    core::Campaign& campaign, const std::vector<apps::AppId>& app_ids,
    const PerturbSpec& perturb) {
  ACTNET_CHECK_MSG(!app_ids.empty(), "empty app set");
  std::vector<PairErrorRecord> records;
  records.reserve(app_ids.size() * app_ids.size());
  bool perturb_matched = false;
  for (const apps::AppId victim : app_ids) {
    for (const apps::AppId aggressor : app_ids) {
      PairErrorRecord rec;
      rec.seed = campaign.options().seed;
      rec.victim = apps::app_info(victim).name;
      rec.aggressor = apps::app_info(aggressor).name;
      rec.predictions = campaign.predict_pair(victim, aggressor);
      rec.measured_pct = rec.predictions.front().measured_pct;
      if (perturb.active()) {
        for (auto& p : rec.predictions) {
          if (p.model == perturb.model) {
            p.predicted_pct *= perturb.scale;
            perturb_matched = true;
          }
        }
      }
      records.push_back(std::move(rec));
    }
  }
  ACTNET_CHECK_MSG(!perturb.active() || perturb_matched,
                   "perturbation names unknown model '" << perturb.model
                                                        << "'");
  return records;
}

std::vector<std::pair<std::string, std::vector<double>>> errors_by_model(
    const std::vector<PairErrorRecord>& records) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  for (const auto& rec : records) {
    for (const auto& p : rec.predictions) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == p.model; });
      if (it == out.end()) {
        out.emplace_back(p.model, std::vector<double>{});
        it = out.end() - 1;
      }
      it->second.push_back(p.abs_error());
    }
  }
  return out;
}

namespace {

std::vector<PredictorSummary> summarize_predictors(
    const std::vector<PairErrorRecord>& records) {
  std::vector<PredictorSummary> out;
  for (auto& [model, errors] : errors_by_model(records)) {
    PredictorSummary s;
    s.name = model;
    s.n = errors.size();
    OnlineStats stats;
    for (double e : errors) stats.add(e);
    s.mean_abs_error_pct = stats.mean();
    s.max_abs_error_pct = stats.max();
    s.p95_abs_error_pct = quantile(errors, 0.95);
    // Fixed bootstrap seed: the CI must be a pure function of the errors
    // so reruns of the same matrix produce byte-identical conformance.json.
    s.mean_ci = bootstrap_mean_ci(errors, 0.90, 1000, /*seed=*/42);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Mg1InversionSummary check_mg1_inversion(
    const std::vector<std::uint64_t>& seeds) {
  ACTNET_CHECK(!seeds.empty());
  using namespace actnet::queueing;
  // Unit-mean service times, three variance regimes: zero (M/D/1), unit
  // (M/M/1) and a skewed log-normal like the calibrated switch.
  const std::vector<std::shared_ptr<const ServiceDistribution>> dists = {
      std::make_shared<Deterministic>(1.0),
      std::make_shared<Exponential>(1.0),
      std::make_shared<LogNormal>(1.0, 0.5),
  };
  Mg1InversionSummary out;
  OnlineStats err;
  for (const std::uint64_t seed : seeds) {
    for (const double rho : {0.2, 0.5, 0.8}) {
      for (const auto& dist : dists) {
        // Injected utilization: lambda = rho / E[S] with E[S] = 1.
        Rng rng(seed * 7919 + 17);
        const Mg1SimResult sim =
            simulate_mg1(rho, *dist, /*num_jobs=*/60000, rng,
                         /*warmup_jobs=*/5000);
        const Mg1Params params{1.0 / dist->mean(), dist->variance()};
        const double est =
            pk_utilization_from_sojourn(sim.sojourn.mean(), params);
        err.add(std::abs(est - rho));
      }
    }
  }
  out.cases = err.count();
  out.mean_abs_rho_error = err.mean();
  out.max_abs_rho_error = err.max();
  return out;
}

ConformanceReport run_conformance(const MatrixSpec& spec,
                                  const PerturbSpec& perturb) {
  obs::ProfScope prof(obs::Subsystem::kValid);
  ACTNET_CHECK(!spec.seeds.empty());
  ACTNET_CHECK(!spec.apps.empty());
  ACTNET_CHECK_MSG(spec.grid.size() >= 2,
                   "conformance grid needs >= 2 configurations");
  ConformanceReport report;
  report.tier = spec.tier;
  report.seeds = spec.seeds;
  report.app_count = spec.apps.size();
  report.grid_size = spec.grid.size();
  report.window_ms = units::to_ms(spec.opts.window);

  for (const std::uint64_t seed : spec.seeds) {
    core::CampaignConfig config;
    config.opts = spec.opts;
    config.opts.seed = seed;
    config.cache_path = "";  // in-memory: conformance never reuses caches
    config.compression_grid = spec.grid;
    config.jobs = spec.jobs;
    core::Campaign campaign(std::move(config));
    // One batch per seed: every experiment the spec's pairings read.
    const core::PrefetchReport pre = core::ParallelRunner(campaign).prefetch(
        core::PrefetchScope::kAll, spec.apps);
    auto records = collect_pair_errors(campaign, spec.apps, perturb);
    ACTNET_INFO("conformance[" << spec.tier << "] seed " << seed << ": "
                               << records.size() << " pairings");
    report.records.insert(report.records.end(),
                          std::make_move_iterator(records.begin()),
                          std::make_move_iterator(records.end()));
    // Registry totals are cumulative: the last seed's cover the sweep.
    obs::RunReport run = pre.run;
    for (obs::JobStats& job : run.jobs)
      job.key = "seed" + std::to_string(seed) + "/" + job.key;
    run.jobs.insert(run.jobs.begin(), report.run.jobs.begin(),
                    report.run.jobs.end());
    run.wall_ms += report.run.wall_ms;
    report.run = std::move(run);
  }
  report.predictors = summarize_predictors(report.records);
  report.mg1 = check_mg1_inversion(spec.seeds);
  return report;
}

}  // namespace actnet::valid
