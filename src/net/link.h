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
//
// Storage is allocation-free in steady state and sized for links by the
// thousand:
//  * each packet is an 80-byte record (size, FIFO link, arrival callback,
//    and an index into a side pool for the rare serialization callback);
//    a flow's queue is an intrusive list of records, and the packet in
//    service is held by index;
//  * records live in 16-record blocks taken lazily from the thread-local
//    free lists (util/freelist.h); when the port goes idle every block but
//    the first is handed back, so a burst does not pin memory on a link;
//  * a flow's DRR state is a 24-byte entry in a vector holding only the
//    flows this link has seen, found through a small open-addressing index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/pool.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/units.h"

namespace actnet::obs {
class Tracer;
}  // namespace actnet::obs

namespace actnet::net {

/// Flow identifier for fair queueing (global source-rank ids).
using FlowId = std::uint32_t;

/// Per-train arrival callback: invoked once per packet with the packet's
/// index within the message. Sized so Network's reconstruct-the-Packet
/// capture (48 bytes) stays inline.
using TrainArriveFn = sim::InlineFn<void(std::uint32_t), 56>;

/// Scheduling statistics of the ports one owner drives on one engine
/// thread (a Network, or one Fabric domain). Every writer runs on that
/// thread, so the fields are plain; the owner publishes them.
struct PortStats {
  std::uint64_t drr_rounds = 0;  ///< DRR quantum credits
  /// Queue depth on every enqueue; depth.max() is the high-water mark.
  obs::LocalHistogram depth;
};

class Link {
 public:
  /// `stats` (shared with the owner's other ports, must outlive the link)
  /// receives this port's DRR rounds and depth samples. `quantum` is the
  /// DRR byte quantum: roughly how many bytes one flow may serialize per
  /// scheduling round while others wait.
  Link(sim::Engine& engine, PortStats& stats, double bytes_per_sec,
       Tick propagation, Bytes quantum = 2048);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `size` bytes on `flow`. `on_serialized` (optional) fires when
  /// the last bit leaves the sender; `on_arrive` fires `propagation` later.
  void transmit(FlowId flow, Bytes size, sim::EventFn&& on_serialized,
                sim::EventFn&& on_arrive);

  /// Queues a back-to-back train of `count` packets on `flow`: packet i is
  /// `full_size` bytes except the last, which is `tail_size` bytes when
  /// tail_size > 0. `on_arrive(i)` fires as packet i arrives (per-flow
  /// FIFO order); `on_last_serialized` (optional) fires when the last
  /// packet's final bit leaves the sender. All `count` packets enter the
  /// flow's DRR queue before any is served, so an idle port records
  /// enqueue-depth samples 1..count.
  void transmit_train(FlowId flow, std::uint32_t count, Bytes full_size,
                      Bytes tail_size, sim::EventFn&& on_last_serialized,
                      TrainArriveFn&& on_arrive);

  double bytes_per_sec() const { return bytes_per_sec_; }
  Tick propagation() const { return propagation_; }

  // --- flow-forward support (route-level regime; DESIGN.md §5.12) ---
  /// True when a packet transmitted now would serialize immediately:
  /// nothing in service, nothing queued, and no armed flow-forward guard.
  /// The Network's flow-forward eligibility check.
  bool idle() const { return !busy_ && ring_size_ == 0 && !ffwd_guard_; }

  /// Arms a demotion guard on an idle() port: the next transmit() /
  /// transmit_train() invokes `on_competitor` BEFORE doing anything else,
  /// so a flow-forwarded message can re-materialize its packets ahead of
  /// the newcomer in FIFO order. An armed port reports idle() == false.
  void arm_flowfwd_guard(sim::EventFn&& on_competitor);
  /// Disarms without firing (the flow-forward completed, or a guard on the
  /// other end of the route fired first).
  void disarm_flowfwd_guard() { ffwd_guard_ = {}; }

  /// Accounting credit for packets that bypassed this port's event
  /// machinery (the flow-forward regime): exactly the packets/bytes/
  /// busy-time the per-packet path would have recorded.
  void credit_flowfwd(std::uint64_t packets, Bytes bytes, Tick busy);

  // Demotion re-materialization: rebuilds the exact per-packet DRR state a
  // flow-forwarded message had analytically advanced past. Counters are
  // NOT credited here — the demoting caller credits already-started
  // packets via credit_flowfwd so totals match the per-packet path.
  /// Restores the packet currently serializing; `end_at` is its analytic
  /// serialization-end tick (>= now), and its serialization-end event takes
  /// the place it would have had if created at `began_at`, when the packet
  /// started serializing, at sequence place `place` (its message's). The
  /// port must be free.
  void restore_in_service(Bytes size, Tick began_at, std::uint64_t place,
                          Tick end_at, sim::EventFn&& on_serialized,
                          sim::EventFn&& on_arrive);
  /// Appends a not-yet-started packet to `flow`'s queue without recording
  /// a depth sample (the accept-time analytic sample already covered it).
  /// Only valid while the port is busy (the restored in-service packet).
  void restore_queued(FlowId flow, Bytes size, sim::EventFn&& on_serialized,
                      sim::EventFn&& on_arrive);
  /// Sets `flow`'s DRR visit state (deficit earned minus spent, and
  /// whether it is mid-visit); the flow must sit at the ring front via
  /// restore_queued.
  void restore_flow_front(FlowId flow, Bytes deficit, bool visited);

  // --- introspection / counters ---
  bool busy() const { return busy_; }
  std::size_t queued_packets() const { return queued_packets_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  std::size_t active_flows() const { return ring_size_; }
  std::uint64_t packets_sent() const { return packets_; }
  Bytes bytes_sent() const { return bytes_; }
  /// Total time spent serializing (utilization = busy_time / elapsed).
  Tick busy_time() const { return busy_time_; }
  /// Train records still parked (some arrival not yet delivered), and the
  /// record pool's slot count (slots are recycled, so it stays small).
  std::size_t trains_live() const { return trains_.live(); }
  std::size_t trains_capacity() const { return trains_.capacity(); }
  /// Packet-record blocks this link currently holds (0 before its first
  /// packet, 1 whenever it is idle, more only while a backlog lasts).
  std::size_t record_blocks() const { return blocks_.size(); }
  /// Records per block.
  static constexpr std::uint32_t kBlockRecords = 16;

  // --- observability ---
  /// Emits this link's queue depth as a Chrome-trace counter `track`
  /// whenever the depth changes inside the tracer's time window.
  void set_trace(obs::Tracer* tracer, int pid, std::string track);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One queued or in-service packet.
  struct Record {
    Bytes size = 0;
    /// Next record of the same flow (kNone at the tail); links the free
    /// list while the record is unused.
    std::uint32_t next = kNone;
    /// Slot of the serialization callback in serialized_, or kNone.
    std::uint32_t serialized = kNone;
    sim::EventFn on_arrive;
  };
  static_assert(sizeof(Record) == 80);

  /// DRR state of one flow the link has seen.
  struct FlowState {
    Bytes deficit = 0;
    FlowId id = 0;
    std::uint32_t head = kNone;  ///< first queued record, kNone when empty
    std::uint32_t tail = kNone;
    bool in_ring = false;
    /// True while the flow is the front of the ring and has already been
    /// credited its quantum for this visit.
    bool visited = false;
  };
  static_assert(sizeof(FlowState) == 24);
  /// One message's arrival callback, parked in trains_ for this hop.
  /// Queue entries capture {this, slot, index}, so the record must outlive
  /// every arrival; `live` counts them down.
  struct Train {
    TrainArriveFn on_arrive;
    std::uint32_t live = 0;  ///< arrivals not yet delivered
  };

  Record& record(std::uint32_t r) {
    return blocks_[r / kBlockRecords][r % kBlockRecords];
  }
  std::uint32_t new_record(Bytes size, sim::EventFn&& on_serialized,
                           sim::EventFn&& on_arrive);
  void free_record(std::uint32_t r);
  void add_block();
  /// Idle port: returns every record block but the first.
  void release_spare_blocks();

  /// Slot of `flow` in flows_, adding it on first sight.
  std::uint32_t flow_slot(FlowId flow);
  /// Slot of `flow`, or kNone when this link has never seen it.
  std::uint32_t find_flow(FlowId flow) const;
  /// Inserts flows_[slot] into flow_index_ (which has a free entry).
  void index_flow(std::uint32_t slot);

  void ring_push_back(std::uint32_t flow_slot);

  void enqueue(std::uint32_t flow_slot, std::uint32_t r);
  void fire_flowfwd_guard();
  void begin_service(std::uint32_t r);
  void finish_service();
  void train_arrive(std::uint32_t slot, std::uint32_t index);
  void start_next();
  void note_depth_change();

  sim::Engine& engine_;
  PortStats& stats_;
  double bytes_per_sec_;
  Tick propagation_;
  Bytes quantum_;
  /// Packet records, kBlockRecords per block (block memory never moves, so
  /// a Record& survives a new block being added).
  std::vector<Record*> blocks_;
  std::uint32_t free_records_ = kNone;  ///< free-list head
  SlotPool<sim::EventFn> serialized_;   ///< serialization callbacks
  std::vector<FlowState> flows_;
  /// Open-addressing FlowId -> flows_ slot index (power-of-two size,
  /// linear probing, kNone = empty, at most half full).
  std::vector<std::uint32_t> flow_index_;
  /// Round-robin order of backlogged flows: a circular buffer of flows_
  /// slots (power-of-two capacity).
  std::vector<std::uint32_t> ring_;
  std::uint32_t ring_head_ = 0;
  std::uint32_t ring_size_ = 0;
  /// Record of the packet currently serializing (valid while busy_): the
  /// serialization-end event captures only `this` and stays inline.
  std::uint32_t in_service_ = kNone;
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

  // Tracing (null = off; never influences scheduling decisions).
  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
  std::string trace_track_;
};

}  // namespace actnet::net
