// Experiment harness: one simulated cluster run.
//
// A Cluster owns the engine, the machine ledger, the network, and the jobs
// of a single experiment, wires up the paper's process layouts, and runs a
// measurement window. Core positions within each socket are fixed by
// convention so layouts can never overlap by accident:
//
//   cores 0..3  first application slot (4 ranks/socket; Lulesh uses 2)
//   cores 4..7  second application slot (pair experiments only)
//   core  6     CompressionB (1 rank/socket)
//   core  7     ImpactB     (1 rank/socket)
//
// Pair experiments use both app slots and no probes; probe experiments use
// the first slot plus probe cores — exactly the paper's layouts, and the
// Machine throws if a layout would ever share a core.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/latency.h"
#include "core/probes.h"
#include "mpi/job.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/task_group.h"

namespace actnet::core {

struct ClusterConfig {
  mpi::MachineConfig machine = mpi::MachineConfig::cab_like();
  net::NetworkConfig network = net::NetworkConfig::cab_like();
  mpi::MpiConfig mpi{};
  std::uint64_t seed = 1;
  /// Hard cap on events per run (runaway-workload guard).
  std::uint64_t event_budget = 400'000'000;

  // --- tracing (see obs/trace.h) ---
  /// Chrome-trace output path; empty falls back to the ACTNET_TRACE
  /// environment variable (and tracing stays off when that is unset too).
  std::string trace_path;
  /// Experiment tag inserted into the trace filename so concurrent
  /// campaign experiments write distinct files; drivers set it to the
  /// cache key ("pair_AMG_FFT", ...).
  std::string trace_label;
};

enum class AppSlot { kFirst, kSecond };

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  mpi::Machine& machine() { return machine_; }
  const ClusterConfig& config() const { return config_; }
  Tick now() const { return engine_.now(); }

  /// Adds a job with an explicit placement.
  mpi::Job& add_job(const std::string& name, mpi::Placement placement);

  /// Adds an application job in one of the two app slots.
  mpi::Job& add_app(const apps::AppInfo& info, AppSlot slot,
                    const std::string& name_suffix = "");

  /// Adds the ImpactB probe job (1 rank/socket, core 7, all nodes).
  mpi::Job& add_impact_job();
  /// Adds the CompressionB job (1 rank/socket, core 6, all nodes).
  mpi::Job& add_compression_job();

  /// Starts `job` with `program` (idempotence not supported).
  void start(mpi::Job& job, const mpi::RankProgram& program);

  /// Advances the simulation by `duration`, then rethrows any exception
  /// that escaped a rank program. Returns events processed.
  std::uint64_t run_for(Tick duration);

  /// Raises the cooperative stop flag on every job.
  void stop_all();

  /// The tracer recording this run, or null when tracing is off.
  obs::Tracer* tracer() { return tracer_.get(); }

 private:
  ClusterConfig config_;
  sim::Engine engine_;
  /// Declared before network_/jobs_ so it is destroyed after them — the
  /// trace file flushes once nothing can record anymore.
  std::unique_ptr<obs::Tracer> tracer_;
  mpi::Machine machine_;
  net::Network network_;
  std::vector<std::unique_ptr<mpi::Job>> jobs_;
  sim::TaskGroup group_;
  std::uint64_t next_job_seed_;
};

}  // namespace actnet::core
