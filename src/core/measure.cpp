#include "core/measure.h"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "util/env.h"
#include "util/log.h"
#include "util/parse.h"

namespace actnet::core {
namespace {

/// A record that reached try_deserialize passed the cache's CRC and line
/// framing, so a parse failure here is a format bug (schema drift, writer
/// bug) rather than disk corruption — silently counting it as a miss would
/// make such bugs invisible. Warn once per process, naming the field that
/// failed; the cache layer separately logs the offending key when it
/// invalidates the entry.
std::atomic<bool> g_warned_bad_record{false};

void warn_bad_record(const char* type, const char* field,
                     const std::string& text) {
  if (g_warned_bad_record.exchange(true)) return;
  ACTNET_WARN("decode " << type << ": CRC-valid record failed to parse at "
                        << "field '" << field << "': \"" << text
                        << "\" (further decode warnings suppressed)");
}

/// Starts `workload` (if any) on the app cores of `cluster`.
void start_workload(Cluster& cluster, const Workload& workload) {
  switch (workload.kind) {
    case Workload::Kind::kIdle:
      return;
    case Workload::Kind::kApp: {
      const auto& info = apps::app_info(workload.app);
      mpi::Job& job = cluster.add_app(info, AppSlot::kFirst);
      cluster.start(job, apps::make_program(workload.app));
      return;
    }
    case Workload::Kind::kCompression: {
      mpi::Job& job = cluster.add_compression_job();
      cluster.start(job, make_compression_program(
                             workload.compression,
                             cluster.config().machine.sockets_per_node));
      return;
    }
  }
}

/// Runs the measurement window, extending it in half-window steps until
/// every listed job has `opts.min_marks` post-warmup iterations on every
/// rank (or the extension budget runs out — the subsequent metric call
/// then reports the shortfall). Returns the effective window end.
Tick run_measurement(Cluster& cluster,
                     std::initializer_list<mpi::Job*> jobs,
                     const MeasureOptions& opts) {
  cluster.run_for(opts.total());
  Tick end = opts.total();
  const Tick limit = opts.total() + opts.window * opts.max_extension;
  auto enough = [&] {
    for (const mpi::Job* job : jobs)
      if (job->min_marks_in(opts.warmup, end) < opts.min_marks) return false;
    return true;
  };
  while (!enough() && end < limit) {
    const Tick step = std::max<Tick>(opts.window / 2, units::ms(1));
    cluster.run_for(step);
    end += step;
  }
  cluster.stop_all();
  return end;
}

}  // namespace

MeasureOptions MeasureOptions::from_env() {
  MeasureOptions opts;
  if (util::env_flag("ACTNET_FAST")) {
    opts.window = units::ms(10);
    opts.warmup = units::ms(3);
  }
  if (const double ms = util::env_double("ACTNET_WINDOW_MS"); ms > 0) {
    opts.window = units::ms(ms);
    opts.warmup = units::ms(ms / 5.0);
  }
  return opts;
}

std::string Workload::label() const {
  switch (kind) {
    case Kind::kIdle: return "idle";
    case Kind::kApp: return apps::app_info(app).name;
    case Kind::kCompression: return "comp_" + compression.label();
  }
  return "?";
}

LatencySummary run_impact_experiment(const Workload& workload,
                                     const MeasureOptions& opts) {
  ClusterConfig cc = opts.cluster;
  cc.seed = opts.seed;
  cc.trace_label = "impact_" + workload.label();
  Cluster cluster(cc);
  LatencyCollector collector;
  mpi::Job& impact = cluster.add_impact_job();
  cluster.start(impact,
                make_impact_program(ImpactConfig{}, &collector,
                                    cc.machine.sockets_per_node));
  start_workload(cluster, workload);
  cluster.run_for(opts.total());
  cluster.stop_all();
  LatencySummary s =
      summarize(collector.samples(), opts.warmup, opts.total());
  ACTNET_INFO("impact[" << workload.label() << "]: n=" << s.count
                        << " mean=" << s.mean_us << "us sd=" << s.stddev_us);
  ACTNET_CHECK_MSG(s.count >= 50,
                   "too few probe samples (" << s.count
                                             << "); enlarge the window");
  return s;
}

std::vector<LatencySummary> run_impact_series(const Workload& workload,
                                              const MeasureOptions& opts,
                                              Tick subwindow) {
  ACTNET_CHECK(subwindow > 0);
  ClusterConfig cc = opts.cluster;
  cc.seed = opts.seed;
  cc.trace_label = "series_" + workload.label();
  Cluster cluster(cc);
  LatencyCollector collector;
  ImpactConfig probe_cfg;
  probe_cfg.sleep = units::us(40);  // denser cadence; still < 2% of a link
  mpi::Job& impact = cluster.add_impact_job();
  cluster.start(impact, make_impact_program(probe_cfg, &collector,
                                            cc.machine.sockets_per_node));
  start_workload(cluster, workload);
  cluster.run_for(opts.total());
  cluster.stop_all();

  std::vector<LatencySummary> series;
  for (Tick t = opts.warmup; t + subwindow <= opts.total(); t += subwindow) {
    LatencySummary s = summarize(collector.samples(), t, t + subwindow);
    if (s.count >= 5) series.push_back(std::move(s));
  }
  ACTNET_CHECK_MSG(!series.empty(), "no usable probe sub-windows");
  return series;
}

std::optional<Calibration> Calibration::of(const LatencySummary& idle) {
  if (idle.count == 0 || !(idle.min_us > 0.0)) return std::nullopt;
  Calibration c;
  c.service_time_us = idle.min_us;
  c.var_service_us2 = idle.stddev_us * idle.stddev_us;
  c.idle = idle;
  return c;
}

Calibration calibrate(const MeasureOptions& opts) {
  std::optional<Calibration> c =
      Calibration::of(run_impact_experiment(Workload::idle(), opts));
  ACTNET_CHECK(c.has_value());
  return *std::move(c);
}

double estimate_utilization(const LatencySummary& loaded,
                            const Calibration& calib) {
  ACTNET_CHECK(loaded.count > 0);
  return queueing::pk_utilization_from_sojourn(loaded.mean_us, calib.mg1());
}

std::vector<double> estimate_utilization_series(
    const std::vector<LatencySummary>& series, const Calibration& calib) {
  std::vector<double> out;
  out.reserve(series.size());
  for (const auto& s : series) out.push_back(estimate_utilization(s, calib));
  return out;
}

double measure_app_alone_us(apps::AppId app, const MeasureOptions& opts) {
  ClusterConfig cc = opts.cluster;
  cc.seed = opts.seed;
  cc.trace_label = "base_" + apps::app_info(app).name;
  Cluster cluster(cc);
  const auto& info = apps::app_info(app);
  mpi::Job& job = cluster.add_app(info, AppSlot::kFirst);
  cluster.start(job, apps::make_program(app));
  const Tick end = run_measurement(cluster, {&job}, opts);
  const double t =
      job.mean_iteration_time_us(opts.warmup, end, opts.min_marks);
  ACTNET_INFO("baseline[" << info.name << "] = " << t << "us/iter");
  return t;
}

double measure_app_vs_compression_us(apps::AppId app,
                                     const CompressionConfig& compression,
                                     const MeasureOptions& opts) {
  ClusterConfig cc = opts.cluster;
  cc.seed = opts.seed;
  cc.trace_label =
      "deg_" + apps::app_info(app).name + "_" + compression.label();
  Cluster cluster(cc);
  const auto& info = apps::app_info(app);
  mpi::Job& job = cluster.add_app(info, AppSlot::kFirst);
  cluster.start(job, apps::make_program(app));
  mpi::Job& comp = cluster.add_compression_job();
  cluster.start(comp, make_compression_program(
                          compression, cc.machine.sockets_per_node));
  const Tick end = run_measurement(cluster, {&job}, opts);
  const double t =
      job.mean_iteration_time_us(opts.warmup, end, opts.min_marks);
  ACTNET_INFO("degradation[" << info.name << " vs " << compression.label()
                             << "] = " << t << "us/iter");
  return t;
}

PairTimes measure_pair_us(apps::AppId first, apps::AppId second,
                          const MeasureOptions& opts) {
  ClusterConfig cc = opts.cluster;
  cc.seed = opts.seed;
  cc.trace_label =
      "pair_" + apps::app_info(first).name + "_" + apps::app_info(second).name;
  Cluster cluster(cc);
  const auto& info_a = apps::app_info(first);
  const auto& info_b = apps::app_info(second);
  mpi::Job& a = cluster.add_app(info_a, AppSlot::kFirst, "/A");
  mpi::Job& b = cluster.add_app(info_b, AppSlot::kSecond, "/B");
  cluster.start(a, apps::make_program(first));
  cluster.start(b, apps::make_program(second));
  const Tick end = run_measurement(cluster, {&a, &b}, opts);
  PairTimes t;
  t.first_us = a.mean_iteration_time_us(opts.warmup, end, opts.min_marks);
  t.second_us = b.mean_iteration_time_us(opts.warmup, end, opts.min_marks);
  ACTNET_INFO("pair[" << info_a.name << "," << info_b.name
                      << "] = " << t.first_us << " / " << t.second_us
                      << " us/iter");
  return t;
}

std::string PairTimes::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << first_us << ';' << second_us;
  return os.str();
}

PairTimes PairTimes::deserialize(const std::string& text) {
  auto t = try_deserialize(text);
  ACTNET_CHECK_MSG(t.has_value(), "bad PairTimes encoding");
  return *t;
}

std::optional<PairTimes> PairTimes::try_deserialize(const std::string& text) {
  const auto sep = text.find(';');
  if (sep == std::string::npos) {
    warn_bad_record("PairTimes", "framing(';')", text);
    return std::nullopt;
  }
  const auto first = util::parse_double(text.substr(0, sep));
  const auto second = util::parse_double(text.substr(sep + 1));
  if (!first || !second) {
    warn_bad_record("PairTimes", !first ? "first_us" : "second_us", text);
    return std::nullopt;
  }
  PairTimes t;
  t.first_us = *first;
  t.second_us = *second;
  return t;
}

double slowdown_pct(double with_us, double base_us) {
  ACTNET_CHECK(base_us > 0.0);
  ACTNET_CHECK(with_us > 0.0);
  const double pct = 100.0 * (with_us / base_us - 1.0);
  // Sampling noise can make a co-run marginally "faster"; the paper
  // reports slowdowns, floored at zero (cf. its VPFFT/AMG zeros).
  return pct < 0.0 ? 0.0 : pct;
}

}  // namespace actnet::core
