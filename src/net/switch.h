// Switch models.
//
// Two implementations behind one interface:
//
//  * OutputQueuedSwitch — the realistic model used for all experiments: a
//    fixed routing-pipeline latency plus log-normal arbitration jitter
//    (drawn from a precomputed integer table, JitterTable) and a rare
//    heavy tail (internal conflicts), after which the packet is
//    handed to the destination's output port for serialization (the
//    Network owns the per-port downlinks). Contention therefore appears at
//    output ports, exactly where it appears in a real crossbar switch.
//    Each packet's delay is a keyed draw (keyed_stage_delay), so it does
//    not depend on the order in which the switch sees packets.
//
//  * SharedQueueSwitch — a literal M/G/1 single-server switch: every packet
//    is serviced FIFO by one server with a configurable service-time
//    distribution. This is the abstraction the paper's queueing analysis
//    assumes; we keep it for validating the Pollaczek–Khinchine pipeline
//    end-to-end and for the switch-model ablation bench.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/pool.h"
#include "net/types.h"
#include "queueing/distributions.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace actnet::net {

/// Per-packet forward continuation. Small-buffer inline: the network core
/// passes `[this]`-sized closures; 32 bytes leaves room for test probes.
using ForwardFn = sim::InlineFn<void(const Packet&), 32>;

/// Aggregate switch statistics (reset-free, monotone).
struct SwitchCounters {
  /// Credits one packet of `size` bytes that spent `d` in the stage.
  void credit(Bytes size, Tick d) {
    ++packets;
    bytes += size;
    time_in_switch += d;
  }

  std::uint64_t packets = 0;
  Bytes bytes = 0;
  /// Time packets spent inside the switch stage (routing/service only,
  /// excluding output-port serialization), summed in ticks. The mean stage
  /// delay is time_in_switch / packets.
  Tick time_in_switch = 0;
};

class Switch {
 public:
  virtual ~Switch() = default;

  /// Accepts a packet at its upstream port's serialization end, one call
  /// for both switch models: the packet's last bit reaches the switch input
  /// at `arrive_at` (>= now, the cable's propagation later). Schedules
  /// `forward` exactly once, at the tick the stage releases the packet into
  /// its output port, and returns that tick. Deciding at serialization end
  /// rather than on arrival saves the cable-crossing event (DESIGN.md §5.9).
  virtual Tick route(const Packet& p, Tick arrive_at, ForwardFn forward) = 0;

  /// True when the switch stage holds no shared timing state: a packet's
  /// stage delay is independent of every other packet, so routing can be
  /// evaluated in closed form. Output-queued crossbars qualify (contention
  /// lives at the output ports, i.e. the Links); the literal M/G/1 shared
  /// queue does not.
  virtual bool contention_free() const = 0;

  /// Draws the stage delay packet `p` would experience and credits the
  /// switch counters, without scheduling anything — the flow-forward
  /// regime's closed-form replacement for route(). Only meaningful on a
  /// contention_free() switch; others must refuse.
  virtual Tick flowfwd_delay(const Packet& p) = 0;

  virtual const SwitchCounters& counters() const = 0;
};

/// Parameters of the realistic switch stage.
struct OutputQueuedConfig {
  Tick routing_latency = 150;       ///< fixed pipeline delay (ns)
  double jitter_mean_ns = 200.0;    ///< log-normal arbitration jitter mean
  double jitter_stddev_ns = 120.0;  ///< ... and standard deviation
  double tail_prob = 0.015;         ///< probability of an internal stall
  double tail_offset_ns = 800.0;    ///< minimum extra delay of a stall
  double tail_mean_excess_ns = 2000.0;  ///< mean extra beyond the offset
};

/// SplitMix64 finalizer (the mixer Rng seeds through): collapses a key
/// tuple into one 64-bit key, one component at a time.
std::uint64_t mix64(std::uint64_t x);

/// The arbitration jitter as the model sees it: ⌊X⌋ ns, where X is
/// log-normal with linear-space `mean_ns` and `stddev_ns` (the stage adds
/// whole ticks, so ⌊X⌋ is exactly the distribution that reaches the
/// simulation). Held as the integer CDF scaled to 2^32,
///   cdf[k] = round(2^32 · P(⌊X⌋ <= k)),
/// which ends at the first k where it reaches 2^32, plus a 4,096-entry
/// guide table over the top 12 bits of the draw. A draw is one table
/// lookup and a search of one guide bucket (usually a single step), so a
/// packet pays no log, cos or exp. P(sample = k) matches P(⌊X⌋ = k) to
/// within 2^-32.
///
/// Tables are immutable and shared: get() builds one per distinct
/// (mean, stddev) per process, on first use, and every later caller (any
/// thread, any experiment) reads the same one.
class JitterTable {
 public:
  static constexpr int kGuideBits = 12;
  /// Upper bound on the table's length (entries of 8 bytes). The default
  /// 200/120 ns jitter needs 5,763; a configuration whose 2^-33 tail
  /// quantile lies beyond this many nanoseconds is rejected.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 22;

  /// The process-wide table for a jitter of `mean_ns` (> 0) and
  /// `stddev_ns` (> 0), built on first use. Thread-safe; the reference
  /// stays valid for the life of the process.
  static const JitterTable& get(double mean_ns, double stddev_ns);

  /// The jitter in whole ticks for 32 uniform random bits `u`: the
  /// smallest k with u < cdf()[k].
  Tick sample(std::uint32_t u) const {
    const std::uint32_t b = u >> (32 - kGuideBits);
    std::uint32_t k = guide_[b];
    const std::uint32_t last = guide_[b + 1];
    while (k < last && cdf_[k] <= u) ++k;
    return static_cast<Tick>(k);
  }

  /// The scaled CDF: non-decreasing, last entry 2^32.
  const std::vector<std::uint64_t>& cdf() const { return cdf_; }

 private:
  JitterTable(double mean_ns, double stddev_ns);

  std::vector<std::uint64_t> cdf_;
  /// guide_[b] = sample(b << 20), the answer for bucket b's smallest draw;
  /// guide_[4096] = the last index.
  std::array<std::uint32_t, (1u << kGuideBits) + 1> guide_{};
};

/// An OutputQueuedConfig resolved once for drawing: the fixed part of the
/// delay and the jitter table (looked up, never built, per switch).
struct KeyedStage {
  explicit KeyedStage(const OutputQueuedConfig& config);

  OutputQueuedConfig config;
  /// Routing latency plus a constant jitter (a zero stddev draws nothing).
  Tick fixed = 0;
  /// The jitter's table; null when the jitter is constant or zero.
  const JitterTable* table = nullptr;
};

/// Draws one output-queued routing-stage delay — fixed pipeline latency +
/// log-normal arbitration jitter + a rare exponential-excess tail — from a
/// fresh stream keyed on (switch_key, p.flow, msg, p.seq), and credits it
/// to `c`. A pure function of those four values: the delay does not depend
/// on which packets the switch saw before, so a packet drawn at
/// flow-forward accept time gets the delay the per-packet path would draw
/// on arrival, and partitioned domains need no shared stream. `msg` names
/// the packet's message within its flow: Network passes the per-flow send
/// ordinal (msg_ordinal), Fabric its domain-local message id.
Tick keyed_stage_delay(const KeyedStage& stage, std::uint64_t switch_key,
                       std::uint64_t msg, const Packet& p, SwitchCounters& c);

class OutputQueuedSwitch final : public Switch {
 public:
  /// `key` is the switch's draw key: any 64-bit value, distinct per switch.
  OutputQueuedSwitch(sim::Engine& engine, OutputQueuedConfig config,
                     std::uint64_t key);

  /// Forwards at arrive_at + the packet's keyed stage delay.
  Tick route(const Packet& p, Tick arrive_at, ForwardFn forward) override;
  bool contention_free() const override { return true; }
  Tick flowfwd_delay(const Packet& p) override;
  const SwitchCounters& counters() const override { return counters_; }

 private:
  struct PendingRoute {
    Packet p;
    ForwardFn fwd;
  };

  sim::Engine& engine_;
  KeyedStage stage_;
  std::uint64_t key_;
  SwitchCounters counters_;
  SlotPool<PendingRoute> pending_;
};

/// Literal M/G/1 switch: one FIFO server shared by all ports. Its service
/// times come from one sequential stream: a single FIFO server orders its
/// packets anyway, and the switch never flow-forwards.
class SharedQueueSwitch final : public Switch {
 public:
  SharedQueueSwitch(sim::Engine& engine,
                    std::shared_ptr<const queueing::ServiceDistribution> service,
                    Rng rng);

  /// Serves packets in route() call order: service starts at
  /// max(arrive_at, busy_until()). Where every input cable has the same
  /// propagation (a single switch), that is arrival order.
  Tick route(const Packet& p, Tick arrive_at, ForwardFn forward) override;
  bool contention_free() const override { return false; }
  Tick flowfwd_delay(const Packet& p) override;
  const SwitchCounters& counters() const override { return counters_; }

  Tick busy_until() const { return busy_until_; }

 private:
  struct PendingRoute {
    Packet p;
    ForwardFn fwd;
  };

  sim::Engine& engine_;
  std::shared_ptr<const queueing::ServiceDistribution> service_;
  Rng rng_;
  Tick busy_until_ = 0;
  SwitchCounters counters_;
  SlotPool<PendingRoute> pending_;
};

}  // namespace actnet::net
