// The validation subsystem's own unit tests: tolerance parsing, gate
// evaluation semantics (including the failure modes that keep the gates
// honest), perturbation plumbing, the synthetic M/G/1 inversion check and
// the conformance.json round-trip.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "util/error.h"
#include "util/json.h"
#include "valid/conformance.h"
#include "valid/matrix.h"
#include "valid/tolerance.h"

namespace actnet::valid {
namespace {

constexpr const char* kDoc = R"({
  "version": 3,
  "tiers": {
    "quick": {
      "predictors": {
        "AverageLT": {"mean_abs_error_pct": 10.0, "p95_abs_error_pct": 25.0},
        "Queue": {"mean_abs_error_pct": 7.0}
      },
      "mg1_inversion": {"max_abs_rho_error": 0.05}
    },
    "full": {
      "predictors": {"Queue": {"mean_abs_error_pct": 8.0}},
      "mg1_inversion": {"max_abs_rho_error": 0.05}
    }
  }
})";

ConformanceReport report_with(
    std::initializer_list<std::pair<const char*, double>> means) {
  ConformanceReport r;
  r.tier = "quick";
  for (const auto& [name, mean] : means) {
    PredictorSummary p;
    p.name = name;
    p.n = 18;
    p.mean_abs_error_pct = mean;
    p.p95_abs_error_pct = mean * 2;
    p.max_abs_error_pct = mean * 3;
    r.predictors.push_back(std::move(p));
  }
  r.mg1.cases = 9;
  r.mg1.mean_abs_rho_error = 0.003;
  r.mg1.max_abs_rho_error = 0.008;
  return r;
}

TEST(Tolerances, ParsesTierSection) {
  const Tolerances t = Tolerances::from_json_text(kDoc, "quick");
  EXPECT_EQ(t.version, 3);
  EXPECT_EQ(t.tier, "quick");
  ASSERT_EQ(t.limits.size(), 4u);
  EXPECT_DOUBLE_EQ(t.limits.at("predictor.AverageLT.mean_abs_error_pct"),
                   10.0);
  EXPECT_DOUBLE_EQ(t.limits.at("predictor.AverageLT.p95_abs_error_pct"),
                   25.0);
  EXPECT_DOUBLE_EQ(t.limits.at("predictor.Queue.mean_abs_error_pct"), 7.0);
  EXPECT_DOUBLE_EQ(t.limits.at("mg1.max_abs_rho_error"), 0.05);
}

TEST(Tolerances, MissingTierOrMalformedDocThrows) {
  EXPECT_THROW(Tolerances::from_json_text(kDoc, "nightly"), Error);
  EXPECT_THROW(Tolerances::from_json_text("{not json", "quick"), Error);
  EXPECT_THROW(Tolerances::from_json_text(R"({"tiers": {}})", "quick"),
               Error);  // no version
  EXPECT_THROW(Tolerances::load("/nonexistent/tolerances.json", "quick"),
               Error);
}

TEST(Tolerances, CheckedInFileCoversBothTiersAndAllPredictors) {
  // Guards the shipped valid/tolerances.json itself: both tiers must gate
  // the mean error of all four paper models plus the mg1 inversion.
  const char* src = std::getenv("ACTNET_TOLERANCES");
  const std::string path = src != nullptr ? src : "valid/tolerances.json";
  for (const std::string tier : {"quick", "full"}) {
    Tolerances t;
    try {
      t = Tolerances::load(path, tier);
    } catch (const Error&) {
      GTEST_SKIP() << "tolerances file not reachable from test cwd: " << path;
    }
    for (const char* m : {"AverageLT", "AverageStDevLT", "PDFLT", "Queue"})
      EXPECT_EQ(t.limits.count("predictor." + std::string(m) +
                               ".mean_abs_error_pct"),
                1u)
          << tier << "/" << m;
    EXPECT_EQ(t.limits.count("mg1.max_abs_rho_error"), 1u) << tier;
    EXPECT_LE(t.limits.at("mg1.max_abs_rho_error"), 0.05) << tier;
  }
}

TEST(Gates, PassWhenObservedWithinLimits) {
  const auto r = report_with({{"AverageLT", 8.0}, {"Queue", 5.0}});
  const auto gates =
      evaluate_gates(r, Tolerances::from_json_text(kDoc, "quick"));
  EXPECT_TRUE(all_passed(gates));
  EXPECT_EQ(gates.size(), 4u);
  const auto s = summarize_gates(gates, "quick");
  EXPECT_TRUE(s.ran);
  EXPECT_TRUE(s.passed);
  EXPECT_EQ(s.checks, 4);
  EXPECT_EQ(s.failed, 0);
}

TEST(Gates, FailureNamesTheRegressedClaim) {
  const auto r = report_with({{"AverageLT", 11.5}, {"Queue", 5.0}});
  const auto gates =
      evaluate_gates(r, Tolerances::from_json_text(kDoc, "quick"));
  EXPECT_FALSE(all_passed(gates));
  const auto s = summarize_gates(gates, "quick");
  EXPECT_FALSE(s.passed);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.detail, "predictor.AverageLT.mean_abs_error_pct");

  std::ostringstream os;
  print_gate_report(os, gates, r, "test");
  EXPECT_NE(os.str().find("RESULT: FAIL"), std::string::npos);
  EXPECT_NE(os.str().find(
                "first regression: predictor.AverageLT.mean_abs_error_pct"),
            std::string::npos);
}

TEST(Gates, OrphanedLimitFails) {
  // The tolerance file gates AverageLT, but the report no longer contains
  // it (renamed predictor): the orphaned limit must fail, not vanish.
  const auto r = report_with({{"Queue", 5.0}});
  const auto gates =
      evaluate_gates(r, Tolerances::from_json_text(kDoc, "quick"));
  EXPECT_FALSE(all_passed(gates));
  bool found = false;
  for (const auto& g : gates)
    if (g.claim == "predictor.AverageLT.mean_abs_error_pct") {
      found = true;
      EXPECT_FALSE(g.pass);
    }
  EXPECT_TRUE(found);
}

TEST(Gates, UngatedPredictorFails) {
  // A predictor in the report with no mean-error tolerance checked in is
  // itself a failing gate.
  const auto r =
      report_with({{"AverageLT", 8.0}, {"Queue", 5.0}, {"NewModel", 1.0}});
  const auto gates =
      evaluate_gates(r, Tolerances::from_json_text(kDoc, "quick"));
  EXPECT_FALSE(all_passed(gates));
  bool found = false;
  for (const auto& g : gates)
    if (g.claim.find("NewModel") != std::string::npos) {
      found = true;
      EXPECT_FALSE(g.pass);
      EXPECT_NE(g.claim.find("no tolerance checked in"), std::string::npos);
    }
  EXPECT_TRUE(found);
}

TEST(Perturb, ParsesAndValidates) {
  const PerturbSpec p = PerturbSpec::parse("AverageLT:1.3");
  EXPECT_EQ(p.model, "AverageLT");
  EXPECT_DOUBLE_EQ(p.scale, 1.3);
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(PerturbSpec{}.active());
  EXPECT_THROW(PerturbSpec::parse("AverageLT"), Error);
  EXPECT_THROW(PerturbSpec::parse("AverageLT:abc"), Error);
  EXPECT_THROW(PerturbSpec::parse(":1.3"), Error);
}

TEST(Matrix, TiersAreWellFormed) {
  const MatrixSpec q = quick_matrix();
  EXPECT_EQ(q.tier, "quick");
  EXPECT_GE(q.seeds.size(), 2u);
  EXPECT_GE(q.apps.size(), 2u);
  EXPECT_GE(q.grid.size(), 2u);
  const MatrixSpec f = full_matrix();
  EXPECT_EQ(f.tier, "full");
  EXPECT_EQ(f.apps.size(), 6u);
  EXPECT_GT(f.grid.size(), q.grid.size());
  EXPECT_GT(f.seeds.size(), 0u);
}

// The synthetic M/G/1 inversion: rho recovered from simulated sojourns
// must match the injected rho to well within the ±0.05 claim.
TEST(Mg1Inversion, RecoversInjectedUtilization) {
  const Mg1InversionSummary s = check_mg1_inversion({1});
  EXPECT_EQ(s.cases, 9u);  // 3 rho x 3 service distributions
  EXPECT_LT(s.max_abs_rho_error, 0.05);
  EXPECT_LT(s.mean_abs_rho_error, 0.02);
  // Deterministic in the seed list.
  const Mg1InversionSummary again = check_mg1_inversion({1});
  EXPECT_EQ(s.max_abs_rho_error, again.max_abs_rho_error);
}

TEST(Conformance, RunReportListsEverySeedsJobs) {
  // A one-app, two-point slice of the quick tier: per seed, the
  // calibration (the one idle run), two grid impacts, the app's impact
  // and baseline, two degradations and its self-pair, all prefetched as
  // one batch.
  MatrixSpec spec = quick_matrix();
  spec.apps = {apps::AppId::kMCB};
  spec.grid.resize(2);
  spec.jobs = 2;
  const ConformanceReport report = run_conformance(spec);
  EXPECT_EQ(report.records.size(), spec.seeds.size());
  constexpr std::size_t kPerSeed = 8;
  ASSERT_EQ(report.run.jobs.size(), kPerSeed * spec.seeds.size());
  std::set<std::string> keys;
  for (const obs::JobStats& job : report.run.jobs) {
    EXPECT_FALSE(job.cached) << job.key;
    EXPECT_GT(job.events, 0u) << job.key;
    keys.insert(job.key);
  }
  EXPECT_EQ(keys.size(), report.run.jobs.size());  // seed-prefixed keys
  for (const std::uint64_t seed : spec.seeds)
    EXPECT_TRUE(keys.count("seed" + std::to_string(seed) + "/calibration"));
  EXPECT_EQ(report.run.workers, 2);
  EXPECT_GT(report.run.wall_ms, 0.0);
  // Job walls fit in the summed prefetch walls of both seeds.
  EXPECT_LE(report.run.worker_utilization(), 1.0);
}

TEST(ConformanceJson, RoundTripsThroughParser) {
  auto r = report_with({{"AverageLT", 8.0}, {"Queue", 5.0}});
  r.seeds = {1, 2};
  r.app_count = 3;
  r.grid_size = 3;
  r.window_ms = 8.0;
  auto tol = Tolerances::from_json_text(kDoc, "quick");
  tol.limits["predictor.Ghost.mean_abs_error_pct"] = 1.0;  // orphan -> null
  const auto gates = evaluate_gates(r, tol);

  std::ostringstream os;
  write_conformance_json(os, r, gates);
  const util::JsonValue doc = util::JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "actnet-conformance-v1");
  EXPECT_EQ(doc.at("tier").as_string(), "quick");
  EXPECT_EQ(doc.at("seeds").as_array().size(), 2u);
  EXPECT_EQ(doc.at("predictors").as_array().size(), 2u);
  EXPECT_FALSE(doc.at("passed").as_bool());  // the orphaned gate failed
  bool saw_null_observed = false;
  for (const auto& g : doc.at("gates").as_array())
    if (g.at("observed").is_null()) saw_null_observed = true;
  EXPECT_TRUE(saw_null_observed);
}

}  // namespace
}  // namespace actnet::valid
