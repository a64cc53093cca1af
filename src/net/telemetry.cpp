#include "net/telemetry.h"

#include <algorithm>

#include "util/error.h"

namespace actnet::net {

TelemetryRecorder::TelemetryRecorder(sim::Engine& engine,
                                     const Network& network, Tick interval,
                                     Tick horizon)
    : engine_(engine), network_(network), interval_(interval),
      horizon_(horizon) {
  ACTNET_CHECK(interval > 0);
  ACTNET_CHECK(horizon >= interval);
  prev_uplink_busy_.resize(network_.nodes(), 0);
  arm();
}

void TelemetryRecorder::arm() {
  engine_.schedule_in(interval_, [this] {
    sample_now();
    if (engine_.now() + interval_ <= horizon_) arm();
  });
}

void TelemetryRecorder::sample_now() {
  TrafficSample s;
  s.at = engine_.now();

  std::uint64_t switch_packets = 0;
  for (int p = 0; p < network_.config().pods; ++p)
    switch_packets += network_.leaf_counters(p).packets;
  s.switch_packets = switch_packets - prev_switch_packets_;
  prev_switch_packets_ = switch_packets;

  const Bytes bytes_sent = network_.counters().bytes_sent;
  s.bytes_sent = bytes_sent - prev_bytes_sent_;
  prev_bytes_sent_ = bytes_sent;

  double total_util = 0.0;
  for (int n = 0; n < network_.nodes(); ++n) {
    const Tick busy = network_.uplink(n).busy_time();
    const double util = static_cast<double>(busy - prev_uplink_busy_[n]) /
                        static_cast<double>(interval_);
    prev_uplink_busy_[n] = busy;
    s.max_uplink_utilization = std::max(s.max_uplink_utilization, util);
    total_util += util;
  }
  s.mean_uplink_utilization = total_util / network_.nodes();
  samples_.push_back(s);
}

double TelemetryRecorder::peak_uplink_utilization() const {
  double peak = 0.0;
  for (const auto& s : samples_)
    peak = std::max(peak, s.max_uplink_utilization);
  return peak;
}

double TelemetryRecorder::mean_uplink_utilization() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += s.mean_uplink_utilization;
  return sum / static_cast<double>(samples_.size());
}

}  // namespace actnet::net
