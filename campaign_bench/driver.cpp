// Campaign benchmark driver: runs ONE cold unit of one workload in this
// process and prints one JSON object describing it on stdout.
//
//   campaign_driver --workload=<name> --seed=<n> --jobs=<J> --scratch=<dir>
//                   [--tolerances=<valid/tolerances.json>]
//                   [--warmup] [--scoped] [--tiny]
//
// Workloads (see README.md beside this file for why each exists):
//   paper_campaign      the Fig. 8/9 pipeline (all six apps, 36 ordered
//                       pairings, four predictors) through core::Campaign +
//                       core::ParallelRunner on a fresh cache file
//   fat_tree_probes     per-pod ImpactB + paced CompressionB rings on the
//                       36-node 2-pod net::Network, swept over sub-seeds and
//                       pacings in a closed loop of J workers
//   partitioned_fabric  core::FabricCampaign calibration + loaded run on a
//                       k=16 fat tree at J partition workers, then again at
//                       1 worker as the determinism reference
//
// Everything is timed from here, around calls into the layers' public
// functions; the per-layer counters come from what the program already
// exports (obs::default_registry() under ACTNET_METRICS=1, the ProfScope
// totals under ACTNET_PROFILE=1, obs::RunReport job rows). Whether those are
// on is decided by the environment run.py passes in; this file adds no
// instrumentation to the program. `run.py` aggregates many units into the
// benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/experiment.h"
#include "core/fabric_campaign.h"
#include "core/parallel.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/log.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "valid/conformance.h"
#include "valid/matrix.h"
#include "valid/tolerance.h"

namespace {

using namespace actnet;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up timing. `setup()` builds and tears down one set-up of a workload
/// and returns the seconds the building took. One takes 5 to 200 us, and
/// on a shared 4-vCPU virtual machine the speed of such short
/// single-threaded work drifts by up to 1.6x from one millisecond, or one
/// second, to the next. So a sample is the mean over a batch of
/// back-to-back set-ups lasting kSetupBatchS, and the batches are spread
/// out in time.
constexpr double kSetupBatchS = 0.002;
constexpr int kSetupBatches = 10;                     // after a unit
constexpr std::chrono::milliseconds kSetupGap{200};  // during a unit

double setup_batch(const std::function<double()>& setup) {
  double built_s = 0.0;
  int n = 0;
  const auto t0 = Clock::now();
  do {
    built_s += setup();
    ++n;
  } while (seconds_since(t0) < kSetupBatchS);
  return built_s / n;
}

/// kSetupBatches batches, back to back: for workloads whose units are short
/// and many, so a run's units already spread the samples out.
std::vector<double> time_setups(const std::function<double()>& setup) {
  std::vector<double> means;
  for (int b = 0; b < kSetupBatches; ++b) means.push_back(setup_batch(setup));
  return means;
}

/// One batch every kSetupGap on a side thread, from construction until
/// stop(): for a unit of one long campaign, whose set-ups sampled after it
/// would all fall in one moment. The batches take 1% of one core.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<double()> setup)
      : setup_(std::move(setup)), thread_([this] { loop(); }) {}
  ~SetupSampler() { halt(); }

  std::vector<double> stop() {
    halt();
    if (error_) std::rethrow_exception(error_);
    if (means_.empty()) means_.push_back(setup_batch(setup_));
    return means_;
  }

 private:
  void loop() {
    try {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, kSetupGap, [this] { return done_; })) {
        lock.unlock();
        const double mean = setup_batch(setup_);
        lock.lock();
        means_.push_back(mean);
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  void halt() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::function<double()> setup_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::vector<double> means_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once the members above exist
};

/// Untimed all-core simulation before the first unit of a run: a host fresh
/// from idle runs its first second or so of work up to 3x slower.
constexpr double kWarmupS = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int jobs = 1;
  std::string scratch;
  std::string tolerances;
  bool warmup = false;
  bool scoped = false;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--jobs") a.jobs = std::stoi(val);
    else if (key == "--scratch") a.scratch = val;
    else if (key == "--tolerances") a.tolerances = val;
    else if (key == "--warmup") a.warmup = true;
    else if (key == "--scoped") a.scoped = true;
    else if (key == "--tiny") a.tiny = true;
    else throw std::runtime_error("unknown argument: " + arg);
  }
  if (a.workload.empty() || a.scratch.empty() || a.jobs < 1)
    throw std::runtime_error("need --workload, --scratch and --jobs>=1");
  return a;
}

/// FNV-1a over bytes: a stable digest of simulated outputs.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Registry snapshot by name; counters and gauges read as `value`,
/// histograms as their mean.
std::map<std::string, double> registry_values() {
  std::map<std::string, double> out;
  for (const auto& s : obs::default_registry().snapshot()) out[s.name] = s.value;
  return out;
}

double prof_s(obs::Subsystem s) {
  return static_cast<double>(obs::profile_busy_ns(s)) / 1e9;
}

/// One output check; a failed one counts against the run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one unit produced.
struct Unit {
  double wall_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> experiments_ms;
  int attempted = 0;
  int failed_experiments = 0;
  std::vector<Check> checks;
  std::string digest;
  std::map<std::string, double> extra;   ///< workload-specific outputs
  std::map<std::string, double> layers;  ///< per-layer numbers
};

/// Layer numbers every workload reads from the shared registry and
/// profiler; zero when ACTNET_METRICS / ACTNET_PROFILE were off.
void add_common_layers(Unit& u, double host_busy_s) {
  const auto r = registry_values();
  const auto get = [&r](const char* name) {
    const auto it = r.find(name);
    return it == r.end() ? 0.0 : it->second;
  };
  auto& L = u.layers;
  const double executed = get("sim.engine.events_executed");
  const double scheduled = get("sim.engine.events_scheduled");
  L["sim.events_executed"] = executed;
  L["sim.events_scheduled"] = scheduled;
  L["sim.events_unexecuted"] = scheduled > executed ? scheduled - executed : 0.0;
  L["sim.events_per_host_s"] = ratio(executed, host_busy_s);
  L["sim.ladder.spills"] = get("sim.engine.ladder.spills");
  L["sim.heap_peak"] = get("sim.engine.heap_peak");
  L["prof.engine.self_s"] = prof_s(obs::Subsystem::kEngine);

  const double messages = get("net.messages_sent");
  const double ffwd = get("net.flowfwd.messages");
  L["net.messages"] = messages;
  L["net.packets"] = get("net.packets_delivered");
  L["net.packets_per_message"] = ratio(L["net.packets"], messages);
  L["net.events_per_message"] = ratio(executed, messages);
  L["net.link.drr_rounds"] = get("net.link.drr_rounds");
  L["net.fastpath.trains"] = get("net.fastpath.trains");
  L["net.fastpath.fallbacks"] = get("net.fastpath.fallbacks");
  L["net.flowfwd.messages"] = ffwd;
  L["net.flowfwd.engaged_share"] = ratio(ffwd, messages);
  L["net.flowfwd.demotion_share"] = ratio(get("net.flowfwd.demotions"), ffwd);
  L["net.flowfwd.fallback_packets"] = get("net.flowfwd.fallback_packets");
  L["prof.net.self_s"] = prof_s(obs::Subsystem::kNet);

  L["mpi.sends_eager"] = get("mpi.sends_eager");
  L["mpi.sends_rendezvous"] = get("mpi.sends_rendezvous");
  L["mpi.unexpected_queue_peak"] = get("mpi.unexpected_queue_peak");
  L["mpi.unexpected_depth_mean"] = get("mpi.unexpected_queue_depth");
  L["prof.mpi.self_s"] = prof_s(obs::Subsystem::kMpi);

  L["core.cache.misses"] = get("core.cache.misses");
  L["core.db.flush_ms"] = prof_s(obs::Subsystem::kCacheIo) * 1e3;
}

// ---------------------------------------------------------------------------
// paper_campaign

/// The conformance suite's full-tier matrix for one seed: all six apps, the
/// 8-configuration CompressionB grid and the 8 ms probe window it is
/// calibrated at (src/valid/matrix.cpp). --tiny swaps in the quick tier's
/// 3-configuration grid.
core::CampaignConfig paper_config(const Args& a, const std::string& cache) {
  const valid::MatrixSpec spec =
      a.tiny ? valid::quick_matrix() : valid::full_matrix();
  core::CampaignConfig c;
  c.opts = spec.opts;
  c.opts.seed = a.seed;
  c.cache_path = cache;
  c.jobs = a.jobs;
  c.compression_grid = spec.grid;
  return c;
}

const char* job_kind(const std::string& key) {
  if (key == "calibration") return "calibration";
  if (key.rfind("impact/", 0) == 0) return "impact";
  if (key.rfind("base/", 0) == 0) return "baseline";
  if (key.rfind("deg/", 0) == 0) return "degradation";
  if (key.rfind("pair/", 0) == 0) return "pair";
  return "other";
}

Unit run_paper(const Args& a) {
  Unit u;
  const std::string cache = a.scratch + "/cache.tsv";
  const auto t_setup = Clock::now();
  auto campaign = std::make_unique<core::Campaign>(paper_config(a, cache));
  core::ParallelRunner runner(*campaign, a.jobs);
  const double open_s = seconds_since(t_setup);

  // Set-up: a Campaign (grid, predictors, fingerprint) plus its
  // ParallelRunner, on an in-memory cache. The cache file's open is left
  // out: on a fresh file it is a durable fingerprint write whose two fsyncs
  // time the shared disk rather than the program, and swung set-up medians
  // by 2.6x between runs of one seed set. The traced run times it as
  // core.db.open_ms. Without a file, the sampler touches no counter or
  // profiler total that the campaign reports.
  SetupSampler sampler([&a] {
    const auto ts = Clock::now();
    core::Campaign c(paper_config(a, ""));
    core::ParallelRunner r(c, a.jobs);
    return seconds_since(ts);
  });
  const auto t0 = Clock::now();
  std::vector<obs::JobStats> jobs;
  double prefetch_wall_s = 0.0;
  const auto prefetch = [&](core::PrefetchScope scope) {
    const auto ts = Clock::now();
    const core::PrefetchReport r = runner.prefetch(scope);
    prefetch_wall_s += seconds_since(ts);
    for (const obs::JobStats& j : r.run.jobs)
      if (!j.cached) jobs.push_back(j);
  };
  if (a.scoped) {
    // One scope at a time, in pipeline order; each later scope finds its
    // predecessors' experiments cached.
    for (const auto scope :
         {core::PrefetchScope::kCalibration,
          core::PrefetchScope::kCompressionTable,
          core::PrefetchScope::kImpacts, core::PrefetchScope::kAppProfiles,
          core::PrefetchScope::kPairs, core::PrefetchScope::kAll})
      prefetch(scope);
  } else {
    prefetch(core::PrefetchScope::kAll);
  }
  const auto t_pred = Clock::now();
  std::vector<apps::AppId> ids;
  for (const auto& app : apps::all_apps()) ids.push_back(app.id);
  const auto records = valid::collect_pair_errors(*campaign, ids);
  const double predict_s = seconds_since(t_pred);
  u.wall_s = seconds_since(t0);
  u.setup_s = sampler.stop();
  campaign.reset();  // closes the cache file

  u.attempted = static_cast<int>(jobs.size());
  double job_wall_s = 0.0;
  std::map<std::string, std::pair<double, double>> by_kind;  // busy_s, events
  for (const obs::JobStats& j : jobs) {
    u.experiments_ms.push_back(j.wall_ms);
    job_wall_s += j.wall_ms / 1e3;
    auto& k = by_kind[job_kind(j.key)];
    k.first += j.wall_ms / 1e3;
    k.second += static_cast<double>(j.events);
  }

  // Accuracy: the Queue model's error over the 36 ordered pairings, as
  // Fig. 9 summarizes it, checked against the full tier's gates on that
  // model (mean and p95 |error|). The three baselines' limits are
  // calibrated over three pooled seeds and do not hold per seed (seed 1:
  // AverageStDevLT mean 15.8 pp > 14), so they are not gated here.
  std::vector<double> queue;
  for (const auto& [model, errors] : valid::errors_by_model(records))
    if (model == "Queue") queue = errors;
  u.checks.push_back(
      {"pairings", records.size() == ids.size() * ids.size() && !queue.empty(),
       std::to_string(records.size()) + " pairings"});
  if (!queue.empty()) {
    valid::ConformanceReport report;
    valid::PredictorSummary s;
    s.name = "Queue";
    s.n = queue.size();
    OnlineStats st;
    for (double e : queue) st.add(e);
    s.mean_abs_error_pct = st.mean();
    s.max_abs_error_pct = st.max();
    s.p95_abs_error_pct = quantile(queue, 0.95);
    report.predictors.push_back(s);
    u.extra["queue_mae_pct"] = s.mean_abs_error_pct;
    u.extra["queue_under10_share"] =
        static_cast<double>(std::count_if(queue.begin(), queue.end(),
                                          [](double e) { return e < 10.0; })) /
        static_cast<double>(queue.size());
    if (!a.tiny) {  // the gates are calibrated for the full-tier grid
      valid::Tolerances tol = valid::Tolerances::load(a.tolerances, "full");
      std::erase_if(tol.limits, [](const auto& limit) {
        return limit.first.rfind("predictor.Queue.", 0) != 0;
      });
      for (const valid::GateResult& g : valid::evaluate_gates(report, tol)) {
        std::ostringstream d;
        d << g.observed << " <= " << g.limit;
        u.checks.push_back({"fig9." + g.claim, g.pass, d.str()});
      }
    }
  }
  u.digest = fnv1a_hex(read_file(cache));

  add_common_layers(u, job_wall_s);
  auto& L = u.layers;
  L["core.jobs.executed"] = static_cast<double>(jobs.size());
  L["core.job_wall_sum_s"] = job_wall_s;
  L["core.worker_utilization"] = ratio(job_wall_s, a.jobs * prefetch_wall_s);
  for (const char* kind :
       {"calibration", "impact", "baseline", "degradation", "pair"}) {
    const auto it = by_kind.find(kind);
    const std::string base = std::string("core.measure.") + kind;
    L[base + ".busy_s"] = it == by_kind.end() ? 0.0 : it->second.first;
    L[base + ".events"] = it == by_kind.end() ? 0.0 : it->second.second;
  }
  L["core.db.open_ms"] = open_s * 1e3;
  L["core.models.predict_ms"] = predict_s * 1e3;
  L["core.models.queue_mae_pct"] = u.extra["queue_mae_pct"];
  L["core.models.queue_under10_share"] = u.extra["queue_under10_share"];
  return u;
}

// ---------------------------------------------------------------------------
// fat_tree_probes

/// The BM_FatTreeMeasurementCampaign shape (bench/micro_engine.cpp): two
/// 18-node pods, one socket per node, a probe pair on the first two nodes
/// of each pod and a 16-node CompressionB ring on the rest, 64 KiB eager
/// threshold so the 40 KiB ring messages go as single transfers.
struct FatTreeExperiment {
  std::uint64_t seed = 1;
  bool loaded = false;
  double sleep_cycles = 0.0;  ///< CompressionB pacing (B)
};

constexpr Tick kFatTreeWarmup = units::ms(2);
constexpr Tick kFatTreeWindow = units::ms(10);

core::ClusterConfig fat_tree_config(std::uint64_t seed) {
  core::ClusterConfig cc;
  cc.machine.nodes = 36;
  cc.machine.sockets_per_node = 1;
  cc.network.nodes = 36;
  cc.network.pods = 2;
  cc.network.spines = 2;
  cc.mpi.eager_threshold = 64 * 1024;
  cc.seed = seed;
  return cc;
}

/// Builds the cluster and starts every job: the experiment's set-up.
struct FatTreeRun {
  core::Cluster cluster;
  std::array<core::LatencyCollector, 2> samples;

  explicit FatTreeRun(const FatTreeExperiment& e)
      : cluster(fat_tree_config(e.seed)) {
    const mpi::MachineConfig& mc = cluster.config().machine;
    for (int pod = 0; pod < 2; ++pod) {
      const int base = 18 * pod;
      mpi::Job& probe = cluster.add_job(
          "ImpactB/pod" + std::to_string(pod),
          mpi::Placement::per_socket(mc, 2, 1, 7, base));
      cluster.start(probe,
                    core::make_impact_program(
                        {}, &samples[static_cast<std::size_t>(pod)], 1));
      if (!e.loaded) continue;
      mpi::Job& ring = cluster.add_job(
          "CompressionB/pod" + std::to_string(pod),
          mpi::Placement::per_socket(mc, 16, 1, 6, base + 2));
      cluster.start(ring, core::make_compression_program(
                              core::CompressionConfig{1, e.sleep_cycles, 1,
                                                      units::KiB(40)},
                              1));
    }
  }
};

struct FatTreeResult {
  std::array<core::LatencySummary, 2> pods;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  bool ok = false;
  std::string error;
};

Unit run_fat_tree(const Args& a) {
  Unit u;
  // Pacings from idle-ish to colliding: the densest rings overlap on their
  // routes, so flow-forward plans demote there.
  const std::vector<double> pacings =
      a.tiny ? std::vector<double>{2.5e5}
             : std::vector<double>{2.5e6, 1e6, 5e5, 2.5e5, 1e5, 5e4};
  const int sub_seeds = a.tiny ? 1 : 6;
  std::vector<FatTreeExperiment> plan;
  for (int s = 0; s < sub_seeds; ++s) {
    const std::uint64_t seed = a.seed * 1000 + static_cast<std::uint64_t>(s);
    plan.push_back({seed, false, 0.0});  // idle calibration of this seed
    for (double b : pacings) plan.push_back({seed, true, b});
  }

  std::vector<FatTreeResult> results(plan.size());
  const auto t0 = Clock::now();
  {
    // Closed loop: each worker takes the next experiment when its previous
    // one finishes.
    util::ThreadPool pool(a.jobs);
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < plan.size(); ++i)
      done.push_back(pool.submit([&plan, &results, i] {
        FatTreeResult& r = results[i];
        const auto te = Clock::now();
        try {
          FatTreeRun run(plan[i]);
          r.events = run.cluster.run_for(kFatTreeWarmup + kFatTreeWindow);
          run.cluster.stop_all();
          for (std::size_t p = 0; p < 2; ++p)
            r.pods[p] = core::summarize(run.samples[p].samples(),
                                        kFatTreeWarmup,
                                        kFatTreeWarmup + kFatTreeWindow);
          r.ok = true;
        } catch (const std::exception& ex) {
          r.error = ex.what();
        }
        r.wall_ms = seconds_since(te) * 1e3;
      }));
    for (auto& f : done) f.get();
  }
  u.wall_s = seconds_since(t0);

  // Checks: >= 50 probe samples per pod, and a P-K utilization in [0, 1)
  // against the same seed's idle calibration of that pod.
  std::ostringstream digest;
  digest.precision(17);
  double busy_s = 0.0, calib_s = 0.0, calib_events = 0.0, impact_s = 0.0,
         impact_events = 0.0;
  int short_samples = 0, bad_util = 0;
  double util_sum = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FatTreeResult& r = results[i];
    ++u.attempted;
    u.experiments_ms.push_back(r.wall_ms);
    busy_s += r.wall_ms / 1e3;
    (plan[i].loaded ? impact_s : calib_s) += r.wall_ms / 1e3;
    (plan[i].loaded ? impact_events : calib_events) +=
        static_cast<double>(r.events);
    if (!r.ok) {
      ++u.failed_experiments;
      std::cerr << "experiment " << i << " failed: " << r.error << "\n";
      continue;
    }
    const FatTreeResult& idle = results[i - i % (pacings.size() + 1)];
    for (std::size_t p = 0; p < 2; ++p) {
      if (r.pods[p].count < 50) ++short_samples;
      digest << r.pods[p].serialize() << '\n';
      if (!plan[i].loaded || !idle.ok || idle.pods[p].count == 0 ||
          r.pods[p].count == 0)
        continue;
      core::Calibration calib;
      calib.idle = idle.pods[p];
      calib.service_time_us = idle.pods[p].min_us;
      calib.var_service_us2 = idle.pods[p].stddev_us * idle.pods[p].stddev_us;
      const double rho = core::estimate_utilization(r.pods[p], calib);
      if (!(rho >= 0.0 && rho < 1.0)) ++bad_util;
      util_sum += rho;
      digest << rho << '\n';
    }
  }
  u.checks.push_back({"probe_samples_per_pod>=50", short_samples == 0,
                      std::to_string(short_samples) + " pod windows short"});
  u.checks.push_back({"utilization_in_[0,1)", bad_util == 0,
                      std::to_string(bad_util) + " out of range"});
  u.digest = fnv1a_hex(digest.str());
  u.extra["mean_utilization"] =
      util_sum / static_cast<double>(2 * sub_seeds * pacings.size());

  add_common_layers(u, busy_s);
  auto& L = u.layers;
  L["core.jobs.executed"] = static_cast<double>(plan.size());
  L["core.job_wall_sum_s"] = busy_s;
  L["core.worker_utilization"] = ratio(busy_s, a.jobs * u.wall_s);
  L["core.measure.calibration.busy_s"] = calib_s;
  L["core.measure.calibration.events"] = calib_events;
  L["core.measure.impact.busy_s"] = impact_s;
  L["core.measure.impact.events"] = impact_events;

  // Set-up: one cluster with its jobs placed and started, sampled after the
  // counters are read.
  std::size_t k = 0;
  u.setup_s = time_setups([&] {
    const auto ts = Clock::now();
    FatTreeRun run(plan[k++ % plan.size()]);
    return seconds_since(ts);
  });
  return u;
}

/// Keeps `jobs` threads simulating fat-tree experiments for `seconds`, and
/// reports nothing: a host that just left idle runs the first second or so
/// of any workload markedly slower, so run.py warms it up before timing.
void warm_up(int jobs, double seconds) {
  const auto t0 = Clock::now();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(jobs));
  std::vector<std::thread> threads;
  for (int j = 0; j < jobs; ++j)
    threads.emplace_back([t0, seconds, j, &errors] {
      try {
        for (std::uint64_t i = 0; seconds_since(t0) < seconds; ++i) {
          FatTreeRun run(
              {i * 16 + static_cast<std::uint64_t>(j), true, 2.5e5});
          run.cluster.run_for(units::ms(2));
          run.cluster.stop_all();
        }
      } catch (...) {
        errors[static_cast<std::size_t>(j)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// ---------------------------------------------------------------------------
// partitioned_fabric

/// FabricCampaign's own default windows (0.5 ms warm-up, 2 ms measured) on
/// a k=16 fat tree: 128 nodes in 16 pods plus the spine block, 17 domains.
core::FabricCampaignConfig fabric_config(const Args& a, std::uint64_t seed,
                                         int workers, const std::string& cache) {
  core::FabricCampaignConfig c;
  c.network = net::NetworkConfig::k_ary_fat_tree(a.tiny ? 8 : 16);
  c.seed = seed;
  c.workers = workers;
  c.cache_path = cache;
  return c;
}

struct FabricPass {
  double calib_s = 0.0;
  double loaded_s = 0.0;
  std::vector<double> utilization;
  core::FabricRunInfo info;
};

FabricPass fabric_pass(const core::FabricCampaignConfig& config) {
  FabricPass p;
  core::FabricCampaign campaign(config);
  const auto t0 = Clock::now();
  campaign.calibration();
  p.calib_s = seconds_since(t0);
  const auto t1 = Clock::now();
  for (int pod = 0; pod < campaign.pods(); ++pod)
    p.utilization.push_back(campaign.utilization_of_pod(pod));
  p.info = campaign.loaded_run_info();
  p.loaded_s = seconds_since(t1);
  return p;
}

/// Sum of `field`'s value over digest lines starting with `prefix`, where
/// the value is the token after `field` (e.g. "delivered" -> messages).
double digest_field(const std::string& digest, const std::string& prefix,
                    const std::string& field, int skip = 0) {
  double total = 0.0;
  std::istringstream in(digest);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream tok(line);
    std::string w;
    while (tok >> w) {
      if (w != field) continue;
      for (int s = 0; s < skip && (tok >> w); ++s) {
      }
      double v = 0.0;
      if (tok >> v) total += v;
      break;
    }
  }
  return total;
}

Unit run_fabric(const Args& a) {
  Unit u;
  const auto cache_of = [&a](const std::string& name) {
    return a.scratch + "/" + name + ".tsv";
  };
  // One campaign per unit: a window barrier stalls every worker whenever
  // the host preempts one of them, so many short units give steadier
  // medians than a few long ones.
  const auto t0 = Clock::now();
  const FabricPass par =
      fabric_pass(fabric_config(a, a.seed, a.jobs, cache_of("fabric")));
  u.wall_s = seconds_since(t0);
  // Registry and profiler totals of this campaign (calibration + loaded
  // run), read before the 1-worker twin adds its own.
  add_common_layers(u, u.wall_s);
  // The same campaign on one worker: the determinism reference.
  const auto t1 = Clock::now();
  const FabricPass serial =
      fabric_pass(fabric_config(a, a.seed, 1, cache_of("serial")));
  const double serial_s = seconds_since(t1);

  u.attempted = 1;
  u.experiments_ms.push_back(u.wall_s * 1e3);
  int bad_util = 0;
  double util_sum = 0.0;
  for (double rho : par.utilization) {
    if (!(rho >= 0.0 && rho < 1.0)) ++bad_util;
    util_sum += rho;
  }
  u.checks.push_back({"utilization_in_[0,1)", bad_util == 0,
                      std::to_string(bad_util) + " pods out of range"});
  u.checks.push_back({"digest_matches_1_worker",
                      par.info.digest == serial.info.digest &&
                          par.utilization == serial.utilization,
                      std::to_string(a.jobs) + " vs 1 worker(s)"});
  u.digest = fnv1a_hex(par.info.digest);
  u.extra["mean_utilization"] =
      util_sum / static_cast<double>(par.utilization.size());

  auto& L = u.layers;
  const auto& st = par.info.stats;
  const auto events = static_cast<double>(par.info.events);
  // No ParallelRunner here, so core.jobs.* and core.worker_utilization stay
  // unset (0); the campaign's two runs are timed as measure spans.
  L["core.measure.calibration.busy_s"] = par.calib_s;
  L["core.measure.impact.busy_s"] = par.loaded_s;
  L["core.measure.impact.events"] = events;
  // Loaded run only; windows count per-domain entries (17 per global
  // window on k=16), as PartitionedEngine::total_stats() does.
  L["sim.partition.windows"] = static_cast<double>(st.windows);
  L["sim.partition.barrier_stalls"] = static_cast<double>(st.barrier_stalls);
  L["sim.partition.channel_msgs"] = static_cast<double>(st.messages_in);
  L["sim.partition.events_per_window"] =
      ratio(events, static_cast<double>(st.windows));
  L["sim.partition.serial_wall_s"] = serial_s;
  L["sim.partition.speedup"] = ratio(serial_s, u.wall_s);
  L["fabric.port.depth_peak"] = digest_field(par.info.digest, "depth", "peak");
  L["fabric.packets"] = digest_field(par.info.digest, "domain", "delivered", 1);

  // Set-up: a FabricCampaign on an already fingerprinted cache (as for
  // paper_campaign, without the durable write) plus the partitioned fabric
  // itself (per-domain engines, links, worker threads).
  const auto cfg = fabric_config(a, a.seed, a.jobs, cache_of("setup"));
  { core::FabricCampaign fingerprinted(cfg); }
  u.setup_s = time_setups([&] {
    const auto ts = Clock::now();
    core::FabricCampaign campaign(cfg);
    net::Fabric fabric(cfg.network, cfg.seed, cfg.workers);
    return seconds_since(ts);
  });
  return u;
}

// ---------------------------------------------------------------------------

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (c == '\n') os << "\\n";
    else os << c;
  }
  os << '"';
}

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ", ";
    first = false;
    write_json_string(os, k);
    os << ": " << (std::isfinite(v) ? v : 0.0);
  }
  os << '}';
}

void write_unit(std::ostream& os, const Unit& u) {
  os.precision(17);
  os << "{\"wall_s\": " << u.wall_s << ", \"peak_rss_mb\": " << peak_rss_mb()
     << ", \"attempted\": " << u.attempted
     << ", \"failed_experiments\": " << u.failed_experiments
     << ", \"digest\": \"" << u.digest << "\", \"setup_s\": [";
  for (std::size_t i = 0; i < u.setup_s.size(); ++i)
    os << (i ? ", " : "") << u.setup_s[i];
  os << "], \"experiments_ms\": [";
  for (std::size_t i = 0; i < u.experiments_ms.size(); ++i)
    os << (i ? ", " : "") << u.experiments_ms[i];
  os << "], \"checks\": [";
  for (std::size_t i = 0; i < u.checks.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": ";
    write_json_string(os, u.checks[i].name);
    os << ", \"ok\": " << (u.checks[i].ok ? "true" : "false")
       << ", \"detail\": ";
    write_json_string(os, u.checks[i].detail);
    os << '}';
  }
  os << "], \"extra\": ";
  write_map(os, u.extra);
  os << ", \"layers\": ";
  write_map(os, u.layers);
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    log::init_from_env();
    fs::create_directories(a.scratch);
    if (a.warmup) warm_up(a.jobs, kWarmupS);
    Unit u;
    if (a.workload == "paper_campaign") u = run_paper(a);
    else if (a.workload == "fat_tree_probes") u = run_fat_tree(a);
    else if (a.workload == "partitioned_fabric") u = run_fabric(a);
    else throw std::runtime_error("unknown workload: " + a.workload);
    write_unit(std::cout, u);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign_driver: " << e.what() << "\n";
    return 2;
  }
}
