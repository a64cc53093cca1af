// Periodic network telemetry.
//
// Samples link and switch counters on a fixed simulated-time cadence and
// keeps per-interval deltas — the passive, switch-counter-based view of
// utilization that the paper contrasts with its active probes ("switch
// counters ... are not available in general as they require root
// privileges", §IV-B). Having both in the simulator lets tests and benches
// check the active estimate against ground truth.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"

namespace actnet::net {

/// One sampling interval's worth of traffic deltas.
struct TrafficSample {
  Tick at = 0;                      ///< end of the interval
  std::uint64_t switch_packets = 0; ///< packets routed by the leaf switches
  Bytes bytes_sent = 0;             ///< bytes injected network-wide
  double max_uplink_utilization = 0.0;   ///< busiest NIC uplink, 0..1
  double mean_uplink_utilization = 0.0;  ///< average across NICs, 0..1
};

/// Self-scheduling sampler; construct after the Network, before running.
/// Sampling stops automatically at `horizon` (or when the engine drains).
/// Each interval reads the network's own counters (leaf switch packets,
/// bytes sent, per-NIC uplink busy time) and keeps the deltas.
class TelemetryRecorder {
 public:
  TelemetryRecorder(sim::Engine& engine, const Network& network,
                    Tick interval, Tick horizon);
  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  const std::vector<TrafficSample>& samples() const { return samples_; }

  /// Busiest-interval share of link capacity over the recorded run.
  double peak_uplink_utilization() const;
  /// Ground-truth mean offered load as a fraction of one link, averaged
  /// over intervals and NICs.
  double mean_uplink_utilization() const;

 private:
  void sample_now();
  void arm();

  sim::Engine& engine_;
  const Network& network_;
  Tick interval_;
  Tick horizon_;
  std::vector<TrafficSample> samples_;
  // Counter values at the previous sample, for deltas.
  std::uint64_t prev_switch_packets_ = 0;
  Bytes prev_bytes_sent_ = 0;
  std::vector<Tick> prev_uplink_busy_;
};

}  // namespace actnet::net
