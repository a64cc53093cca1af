// Fabric campaign: the paper's probe methodology scaled to a partitioned
// k-ary fat tree (DESIGN.md §5.14).
//
// Two experiments, both driven through net::Fabric so every event executes
// under the conservative-lookahead runtime:
//
//  * Calibration — every pod runs an idle self-clocked ping-pong probe
//    (two neighbouring nodes, half-RTT samples, exactly the paper's §IV-B
//    protocol); the service time is the minimum idle latency and Var(S)
//    the idle variance, pooled over all pods.
//
//  * Loaded run — the same probes while fixed-cadence cross-pod bulk
//    traffic loads every trunk; per-pod latency summaries feed the
//    Pollaczek–Khinchine inversion to a per-pod utilization estimate.
//
// Probes are deliberately pod-local (both endpoints in one domain): the
// probe's self-clocking loop never crosses a partition boundary, so it
// needs no cross-domain callbacks, while the background load crosses pods
// by construction — the trunks the probes' leaf switches feed are the
// contended resource, as in the paper's shared-switch setup.
//
// Results are memoized in a MeasurementDb keyed by a fabric fingerprint.
// The fingerprint EXCLUDES `workers`, which no longer changes anything, so
// a cache written with one `workers` value is served to any other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/latency.h"
#include "core/measure.h"
#include "net/network.h"
#include "sim/partition.h"
#include "util/units.h"

namespace actnet::core {

struct FabricCampaignConfig {
  net::NetworkConfig network = net::NetworkConfig::k_ary_fat_tree(4);
  Tick window = units::ms(2);
  Tick warmup = units::ms(0.5);
  std::uint64_t seed = 1;
  /// Probe ping-pong: payload per direction and idle gap between rounds.
  Bytes probe_size = 256;
  Tick probe_gap = units::us(20);
  /// Background load: every pod sends `bg_size` to the next pod every
  /// `bg_interval` (pre-scheduled at setup; 0 interval disables).
  Bytes bg_size = units::KiB(64);
  Tick bg_interval = units::us(50);
  /// Ignored: the partitioned runtime runs on the calling thread. Kept
  /// only because the campaign benchmark's driver still sets it; goes with
  /// the next benchmark change.
  int workers = 0;
  /// Cache file; empty = in-memory only.
  std::string cache_path;

  Tick total() const { return warmup + window; }
};

/// Everything one simulated fabric run produces beyond the cached
/// summaries — the conformance surface the determinism tests compare.
struct FabricRunInfo {
  bool ran = false;  ///< false until a run happens in this process
  std::string digest;
  std::uint64_t events = 0;
  sim::PartitionedEngine::DomainStats stats;  ///< total over domains
};

class FabricCampaign {
 public:
  explicit FabricCampaign(FabricCampaignConfig config = {});

  const FabricCampaignConfig& config() const { return config_; }
  int pods() const { return config_.network.pods; }

  /// Pooled idle calibration (cached under "fabric/calib").
  const Calibration& calibration();

  /// Probe latency summary of pod `p` under background load (cached under
  /// "fabric/pod=<p>/impact"). The first uncached pod triggers the loaded
  /// run, which fills every pod at once.
  const LatencySummary& impact_of_pod(int pod);

  /// P–K inversion of pod `p`'s loaded summary against the calibration.
  double utilization_of_pod(int pod);

  /// Digest + runtime stats of the loaded run. Forces the simulation if it
  /// has not run in this process (cached summaries do not carry a digest).
  const FabricRunInfo& loaded_run_info();

  MeasurementDb& db() { return db_; }

 private:
  std::string fingerprint() const;
  void run_loaded();

  FabricCampaignConfig config_;
  MeasurementDb db_;
  bool calibrated_ = false;
  Calibration calibration_;
  std::vector<LatencySummary> pod_impact_;
  std::vector<bool> pod_impact_ready_;
  FabricRunInfo loaded_;
};

}  // namespace actnet::core
