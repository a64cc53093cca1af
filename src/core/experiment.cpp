#include "core/experiment.h"

#include "obs/report.h"
#include "util/log.h"

namespace actnet::core {

namespace {

std::unique_ptr<obs::Tracer> make_tracer(const ClusterConfig& config) {
  obs::TraceConfig tc = obs::TraceConfig::from_env();
  if (!config.trace_path.empty()) tc.path = config.trace_path;
  if (tc.path.empty()) return nullptr;
  tc.label = config.trace_label;
  return std::make_unique<obs::Tracer>(std::move(tc));
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), tracer_(make_tracer(config_)),
      machine_(config.machine),
      network_(engine_, config.network, Rng(config.seed ^ 0xace1ace1u)),
      group_(engine_), next_job_seed_(config.seed * 0x100 + 1) {
  ACTNET_CHECK_MSG(config_.machine.nodes == config_.network.nodes,
                   "machine and network node counts differ");
  engine_.set_event_budget(config_.event_budget);
  if (tracer_) network_.set_tracer(tracer_.get());
}

mpi::Job& Cluster::add_job(const std::string& name,
                           mpi::Placement placement) {
  jobs_.push_back(std::make_unique<mpi::Job>(name, engine_, network_,
                                             machine_, config_.mpi,
                                             std::move(placement),
                                             next_job_seed_++));
  if (tracer_) jobs_.back()->set_tracer(tracer_.get());
  return *jobs_.back();
}

mpi::Job& Cluster::add_app(const apps::AppInfo& info, AppSlot slot,
                           const std::string& name_suffix) {
  const int first_core = slot == AppSlot::kFirst ? 0 : 4;
  ACTNET_CHECK_MSG(info.procs_per_socket <= 4,
                   "app slot holds at most 4 ranks per socket");
  auto placement = mpi::Placement::per_socket(
      config_.machine, info.nodes_used, info.procs_per_socket, first_core);
  return add_job(info.name + name_suffix, std::move(placement));
}

mpi::Job& Cluster::add_impact_job() {
  auto placement = mpi::Placement::per_socket(
      config_.machine, config_.machine.nodes, 1,
      config_.machine.cores_per_socket - 1);
  return add_job("ImpactB", std::move(placement));
}

mpi::Job& Cluster::add_compression_job() {
  auto placement = mpi::Placement::per_socket(
      config_.machine, config_.machine.nodes, 1,
      config_.machine.cores_per_socket - 2);
  return add_job("CompressionB", std::move(placement));
}

void Cluster::start(mpi::Job& job, const mpi::RankProgram& program) {
  job.start(group_, program);
}

std::uint64_t Cluster::run_for(Tick duration) {
  ACTNET_CHECK(duration >= 0);
  const std::uint64_t n = engine_.run_until(engine_.now() + duration);
  group_.check();
  // Credits the campaign runner's per-job stats (no-op outside a campaign).
  obs::add_job_stats(n, duration);
  ACTNET_DEBUG("run_for " << units::to_ms(duration) << "ms: " << n
                          << " events");
  return n;
}

void Cluster::stop_all() {
  for (auto& j : jobs_) j->request_stop();
}

}  // namespace actnet::core
