// Point-to-point link with deficit-round-robin (DRR) fair queueing.
//
// InfiniBand-class fabrics arbitrate fairly across queue pairs and input
// ports, so a latency probe's single packet never waits behind another
// flow's entire bulk backlog — it waits roughly one quantum per active
// flow. Modeling this matters: with naive FIFO a saturating bulk workload
// would inflate probe latencies by milliseconds, while real switches (and
// the paper's measurements, which top out at 92% inferred utilization)
// keep them within a few microseconds.
//
// Each flow (we use the global source-rank id) gets a FIFO queue; the link
// serves one packet at a time, visiting active flows round-robin with a
// byte deficit counter (classic DRR, Shreedhar & Varghese). Serialization
// time is size/bandwidth; arrival fires `propagation` after serialization
// ends. Within a flow, ordering is strictly FIFO.
//
// Every packet takes the same path: enqueue on its flow, then DRR picks
// the next packet whenever the port frees up. A whole message can be
// queued in one call (transmit_train), which parks its arrival callback in
// ONE pooled record per (message, hop) so the per-packet queue entries
// capture only {this, slot, index} and stay allocation-free.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "net/pool.h"
#include "sim/engine.h"
#include "util/units.h"

namespace actnet::obs {
class Counter;
class Gauge;
class Histogram;
class Tracer;
}  // namespace actnet::obs

namespace actnet::net {

/// Flow identifier for fair queueing (global source-rank ids).
using FlowId = std::uint32_t;

/// Per-train arrival callback: invoked once per packet with the packet's
/// index within the message. Sized so Network's reconstruct-the-Packet
/// capture (48 bytes) stays inline.
using TrainArriveFn = sim::InlineFn<void(std::uint32_t), 56>;

class Link {
 public:
  /// `quantum` is the DRR byte quantum: roughly how many bytes one flow may
  /// serialize per scheduling round while others wait.
  Link(sim::Engine& engine, double bytes_per_sec, Tick propagation,
       Bytes quantum = 2048);

  /// Queues `size` bytes on `flow`. `on_serialized` (optional) fires when
  /// the last bit leaves the sender; `on_arrive` fires `propagation` later.
  void transmit(FlowId flow, Bytes size, sim::EventFn on_serialized,
                sim::EventFn on_arrive);

  /// Queues a back-to-back train of `count` packets on `flow`: packet i is
  /// `full_size` bytes except the last, which is `tail_size` bytes when
  /// tail_size > 0. `on_arrive(i)` fires as packet i arrives (per-flow
  /// FIFO order); `on_last_serialized` (optional) fires when the last
  /// packet's final bit leaves the sender. All `count` packets enter the
  /// flow's DRR queue before any is served, so an idle port records
  /// enqueue-depth samples 1..count.
  void transmit_train(FlowId flow, std::uint32_t count, Bytes full_size,
                      Bytes tail_size, sim::EventFn on_last_serialized,
                      TrainArriveFn on_arrive);

  double bytes_per_sec() const { return bytes_per_sec_; }
  Tick propagation() const { return propagation_; }

  // --- flow-forward support (route-level regime; DESIGN.md §5.12) ---
  /// True when a packet transmitted now would serialize immediately:
  /// nothing in service, nothing queued, and no armed flow-forward guard.
  /// The Network's flow-forward eligibility check.
  bool idle() const { return !busy_ && ring_.empty() && !ffwd_guard_; }

  /// Arms a demotion guard on an idle() port: the next transmit() /
  /// transmit_train() invokes `on_competitor` BEFORE doing anything else,
  /// so a flow-forwarded message can re-materialize its packets ahead of
  /// the newcomer in FIFO order. An armed port reports idle() == false.
  void arm_flowfwd_guard(sim::EventFn on_competitor);
  /// Disarms without firing (the flow-forward completed, or a guard on the
  /// other end of the route fired first).
  void disarm_flowfwd_guard() { ffwd_guard_ = {}; }
  bool flowfwd_guarded() const { return static_cast<bool>(ffwd_guard_); }

  /// Accounting credit for packets that bypassed this port's event
  /// machinery (the flow-forward regime): exactly the packets/bytes/
  /// busy-time the per-packet path would have recorded.
  void credit_flowfwd(std::uint64_t packets, Bytes bytes, Tick busy);
  /// Records one queue-depth-on-enqueue sample (the analytic depth the
  /// per-packet path would have sampled for one enqueue).
  void credit_flowfwd_depth(std::size_t depth);

  // Demotion re-materialization: rebuilds the exact per-packet DRR state a
  // flow-forwarded message had analytically advanced past. Counters are
  // NOT credited here — the demoting caller credits already-started
  // packets via credit_flowfwd so totals match the per-packet path.
  /// Restores the packet currently serializing; `end_at` is its analytic
  /// serialization-end tick (>= now). The port must be free.
  void restore_in_service(Bytes size, Tick end_at, sim::EventFn on_serialized,
                          sim::EventFn on_arrive);
  /// Appends a not-yet-started packet to `flow`'s queue without recording
  /// a depth sample (the accept-time analytic sample already covered it).
  /// Only valid while the port is busy (the restored in-service packet).
  void restore_queued(FlowId flow, Bytes size, sim::EventFn on_serialized,
                      sim::EventFn on_arrive);
  /// Sets `flow`'s DRR visit state (deficit earned minus spent, and
  /// whether it is mid-visit); the flow must sit at the ring front via
  /// restore_queued.
  void restore_flow_front(FlowId flow, Bytes deficit, bool visited);

  // --- introspection / counters ---
  bool busy() const { return busy_; }
  std::size_t queued_packets() const { return queued_packets_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  std::size_t active_flows() const { return ring_.size(); }
  std::uint64_t packets_sent() const { return packets_; }
  Bytes bytes_sent() const { return bytes_; }
  /// Total time spent serializing (utilization = busy_time / elapsed).
  Tick busy_time() const { return busy_time_; }
  /// Train records still parked (some arrival not yet delivered), and the
  /// record pool's slot count (slots are recycled, so it stays small).
  std::size_t trains_live() const { return trains_.live(); }
  std::size_t trains_capacity() const { return trains_.capacity(); }

  // --- observability (see obs/metrics.h; Network wires these) ---
  /// Shares aggregate metrics with sibling links: DRR scheduling rounds,
  /// the queue-depth-on-enqueue distribution, and the depth high-water
  /// mark. Null pointers leave that metric off.
  void attach_metrics(obs::Counter* drr_rounds, obs::Histogram* queue_depth,
                      obs::Gauge* queue_depth_peak);
  /// Emits this link's queue depth as a Chrome-trace counter `track`
  /// whenever the depth changes inside the tracer's time window.
  void set_trace(obs::Tracer* tracer, int pid, std::string track);

 private:
  struct Item {
    Bytes size;
    sim::EventFn on_serialized;
    sim::EventFn on_arrive;
  };
  struct FlowState {
    std::deque<Item> queue;
    Bytes deficit = 0;
    bool in_ring = false;
    /// True while the flow is the front of the ring and has already been
    /// credited its quantum for this visit.
    bool visited = false;
  };
  /// One message's arrival callback, parked in trains_ for this hop.
  /// Queue entries capture {this, slot, index}, so the record must outlive
  /// every arrival; `live` counts them down.
  struct Train {
    TrainArriveFn on_arrive;
    std::uint32_t live = 0;  ///< arrivals not yet delivered
  };

  void enqueue_item(FlowId flow, Item item);
  void fire_flowfwd_guard();
  void note_enqueue_depth(std::size_t depth);
  void begin_service(Item item);
  void finish_service();
  void train_arrive(std::uint32_t slot, std::uint32_t index);
  void start_next();
  void note_depth_change();

  sim::Engine& engine_;
  double bytes_per_sec_;
  Tick propagation_;
  Bytes quantum_;
  std::unordered_map<FlowId, FlowState> flows_;
  std::deque<FlowId> ring_;
  /// The packet currently serializing (valid while busy_): kept here so the
  /// serialization-end event captures only `this` and stays inline.
  Item in_service_{};
  bool busy_ = false;
  SlotPool<Train> trains_;
  /// Fires on the next competing enqueue (flow-forward demotion hook).
  sim::EventFn ffwd_guard_;
  /// Suppresses depth-sample recording while a flow-forward demotion
  /// re-materializes queue entries whose samples were recorded at accept.
  bool suppress_depth_samples_ = false;
  std::size_t queued_packets_ = 0;
  Bytes queued_bytes_ = 0;
  std::uint64_t packets_ = 0;
  Bytes bytes_ = 0;
  Tick busy_time_ = 0;

  // Observability (null = off; never influences scheduling decisions).
  obs::Counter* m_drr_rounds_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  obs::Gauge* m_queue_peak_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
  std::string trace_track_;
};

}  // namespace actnet::net
