// Single-switch cluster network.
//
// Models the bottom level of the Cab fat tree that the paper studies: N
// compute nodes, each attached by a full-duplex link to one switch. A
// message is packetized into MTU-sized packets which traverse
//
//   source NIC uplink (serialization, FIFO)
//     -> switch stage (routing latency + jitter [+ tail])
//     -> destination output port (serialization, FIFO)
//     -> destination NIC (fixed per-packet receive overhead)
//
// Each packet costs three engine events — uplink serialization end, switch
// exit, downlink serialization end — and each message one more, the
// completion of its last packet: cables and the receive overhead are added
// when the next stage is decided, not crossed by events (DESIGN.md §5.9).
//
// Intra-node messages bypass the switch through a per-node shared-memory
// channel. Because ImpactB/CompressionB/application processes share nodes,
// they naturally share NIC uplinks and switch output ports — the contention
// the paper's probes measure.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/pool.h"
#include "net/switch.h"
#include "net/types.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace actnet::obs {
class Tracer;
}  // namespace actnet::obs

namespace actnet::net {

enum class SwitchKind {
  kOutputQueued,  ///< realistic crossbar-like model (default)
  kSharedQueue,   ///< literal M/G/1 single-server model (ablation)
};

struct NetworkConfig {
  int nodes = 18;

  // --- topology ---
  /// Number of bottom-level (leaf) switches; nodes are split evenly across
  /// them. 1 = the paper's single-switch setting. With more pods the
  /// network becomes a two-level fat tree: cross-pod packets take
  /// leaf -> spine -> leaf, statically load-balanced across spines by flow
  /// (the paper's "future work" setting; see bench/ext_fat_tree).
  int pods = 1;
  /// Second-level switches (only used when pods > 1).
  int spines = 2;
  /// Bandwidth multiplier of each leaf<->spine trunk relative to a node
  /// link. The Cab fat tree is fully provisioned (18 node ports, 18 up
  /// ports per leaf): trunk_factor = nodes_per_pod / spines.
  double trunk_factor = 0.0;  ///< 0 = auto (full bisection)
  /// Leaf<->spine cable propagation; 0 = same as link_propagation (the
  /// historical behavior). Inter-rack optics are longer than node cables,
  /// and this bound doubles as the partitioned fabric's conservative
  /// lookahead — every cross-pod hop crosses one trunk, so no event can
  /// affect another pod sooner than this (see sim/partition.h).
  Tick trunk_propagation = 0;
  /// k-ary fat-tree parameter recorded by k_ary_fat_tree() (0 = topology
  /// assembled by hand). Purely descriptive for construction — pods/
  /// spines/nodes carry the shape — but campaign fingerprints hash it so
  /// caches from differently-built fabrics never alias.
  int k = 0;

  // Cables and ports (QLogic QDR-like numbers).
  double link_bandwidth = units::GBps(5.0);  ///< bytes/sec, each direction
  Tick link_propagation = units::ns(50);
  Bytes mtu = 4096;                          ///< packetization unit
  Tick recv_overhead = units::ns(250);       ///< per-packet NIC receive cost
  Bytes drr_quantum = 2048;                  ///< fair-queueing byte quantum

  // Switch model selection and parameters.
  SwitchKind switch_kind = SwitchKind::kOutputQueued;
  OutputQueuedConfig output_queued{};
  /// Shared-queue service profile (only used with kSharedQueue).
  double sq_service_mean_ns = 600.0;
  double sq_service_stddev_ns = 250.0;

  // Intra-node shared-memory channel.
  double local_bandwidth = units::GBps(8.0);
  Tick local_latency = units::ns(350);

  /// A Cab-like 18-node single-switch configuration (the defaults).
  static NetworkConfig cab_like() { return NetworkConfig{}; }

  /// A k-ary fat tree (k even, >= 2): k pods of k/2 nodes behind one leaf
  /// switch each, k/2 spines, full bisection. k=2 degenerates to two
  /// two-node pods; k=8 is the 32-node fabric the partitioned benches
  /// drive. Trunks get 500 ns inter-rack propagation.
  static NetworkConfig k_ary_fat_tree(int k);

  /// Trunk propagation with the 0 = link_propagation default resolved.
  Tick trunk_prop() const {
    return trunk_propagation > 0 ? trunk_propagation : link_propagation;
  }
};

/// Point-in-time traffic counters for the whole network.
struct NetworkCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t packets_delivered = 0;
  Bytes bytes_sent = 0;
  /// Messages advanced in closed form by the flow-forward regime.
  std::uint64_t flowfwd_messages = 0;
  /// Flow-forwards demoted back to packet-level DRR by a competing
  /// enqueue somewhere on their route.
  std::uint64_t flowfwd_demotions = 0;
  /// Packets re-materialized into the packet-level machinery by demotions
  /// (the not-yet-delivered remainder of each demoted message).
  std::uint64_t flowfwd_fallback_packets = 0;
};

class Network {
 public:
  /// Completion callbacks are move-only inline callables; a closure beyond
  /// the inline capacity would spill to the heap once per message, never
  /// per packet event (the MPI protocol's closures all fit).
  using Callback = sim::EventFn;

  Network(sim::Engine& engine, NetworkConfig config, Rng rng);
  /// Publishes counters(), port_stats() and the packet-latency histogram
  /// into obs::default_registry() ("net.*").
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Allocates a contiguous block of `count` flow ids for fair queueing
  /// (one per rank of a communicator).
  FlowId allocate_flows(int count);

  /// Sends `size` bytes from `src` to `dst` on fair-queueing flow `flow`
  /// (same-node messages use the node-local shared-memory channel).
  ///
  /// `on_injected` fires when the message has fully left the source host
  /// (local send completion); `on_delivered` fires when the last packet has
  /// been received at the destination. Either callback may be null.
  MessageId send(NodeId src, NodeId dst, FlowId flow, Bytes size,
                 Callback&& on_injected, Callback&& on_delivered);

  /// Flow-forward regime on/off (on at construction; see DESIGN.md
  /// §5.12). The regime reproduces the per-packet path exactly, contended
  /// traffic included; turning it off runs that per-packet reference.
  void set_flow_forward(bool on) { flowfwd_ = on; }

  int nodes() const { return config_.nodes; }
  const NetworkConfig& config() const { return config_; }
  const NetworkCounters& counters() const { return counters_; }
  /// Counters of the (first) leaf switch — the paper's measured switch.
  const SwitchCounters& switch_counters() const {
    return leaves_[0]->counters();
  }
  const SwitchCounters& leaf_counters(int pod) const;
  const SwitchCounters& spine_counters(int spine) const;
  int pod_of(NodeId n) const;
  const Link& uplink(NodeId n) const;
  const Link& downlink(NodeId n) const;
  std::size_t in_flight_messages() const { return in_flight_.live(); }
  /// DRR rounds and queue-depth samples of every port.
  const PortStats& port_stats() const { return ports_; }
  /// End-to-end latency of every cross-node packet, in ns.
  const obs::LocalHistogram& packet_latency() const { return latency_ns_; }

  // --- observability ---
  /// Starts recording into `tracer`: per-packet lifecycle spans
  /// (inject -> deliver), switch-stage spans, and per-port queue-depth
  /// counter tracks, all inside the tracer's virtual-time window. The
  /// tracer must outlive the network. Recording never alters the event
  /// sequence — see DESIGN.md §5.8 on non-perturbation.
  void set_tracer(obs::Tracer* tracer);

 private:
  struct InFlight {
    MessageId id = 0;
    std::uint32_t remaining = 0;
    /// First of the engine sequence places taken at send: the places of
    /// the message's flow-forward events and of the events a demotion
    /// restores.
    std::uint64_t place = 0;
    Callback on_delivered;
  };
  /// Parks a message's delivery state, takes its sequence place and counts
  /// one send on `flow`; returns its id.
  MessageId open_message(FlowId flow, std::uint32_t packets,
                         Callback&& on_delivered);
  /// The in_flight_ slot a MessageId carries in its low 32 bits (the high
  /// bits hold the flow's send ordinal, so ids stay unique as slots are
  /// reused).
  static std::uint32_t slot_of(MessageId id) {
    return static_cast<std::uint32_t>(id);
  }
  std::uint64_t place_of(MessageId id) const {
    return in_flight_.at(slot_of(id)).place;
  }
  /// Counts one delivered packet of `id`; the last one completes it.
  void packet_delivered(MessageId id, std::uint32_t packets = 1);
  /// Counts one cross-node packet delivered at `complete`: counters,
  /// latency histogram and "packet" trace span.
  void account_packet(NodeId dst, Tick injected_at, Tick complete);
  /// Spine a cross-pod packet's flow is hashed onto.
  int spine_of(const Packet& p) const {
    return static_cast<int>(p.flow % spines_.size());
  }

  /// One packet of a flow-forwarded message, in downlink service order:
  /// what the closed form cannot recompute from the message's sizes.
  struct FFHop {
    Tick fwd = 0;             ///< switch output (arrival + pre-drawn delay)
    std::uint32_t seq = 0;    ///< packet index within its message
    std::uint32_t depth = 0;  ///< downlink depth-on-enqueue sample
  };

  /// A message advanced in closed form. Lives from send() until its
  /// completion event (or demotion); both ends of the route hold a guard
  /// pointing back at it. Its first full_count packets carry full_size
  /// bytes and the last one, if the size does not divide, the tail; the
  /// uplink serializes them back to back from t0, so t_inj - t0 is the
  /// message's serialization time on either port.
  struct FlowFwd {
    MessageId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    FlowId flow = 0;
    Tick t0 = 0;
    Tick t_inj = 0;  ///< the last packet's uplink serialization end
    std::uint32_t full_count = 0;
    Bytes full_size = 0;
    Bytes tail = 0;
    Tick full_ser = 0;  ///< serialization time of full_size (>= 1)
    Tick tail_ser = 0;  ///< ... and of the tail
    Bytes bytes = 0;    ///< the message's bytes on either port
    std::vector<FFHop> hops;  ///< downlink service order
    sim::Engine::CancelToken inj_ev;
    sim::Engine::CancelToken done_ev;
    Callback on_injected;
    bool injected = false;

    Bytes size_of(std::uint32_t seq) const {
      return seq < full_count ? full_size : tail;
    }
    Tick ser_of(std::uint32_t seq) const {
      return seq < full_count ? full_ser : tail_ser;
    }
    /// Uplink serialization end of packet `seq`.
    Tick upl_end(std::uint32_t seq) const {
      return seq < full_count ? t0 + full_ser * (seq + Tick{1}) : t_inj;
    }
  };

  /// One packet of a demoted message: the whole closed-form schedule the
  /// per-packet path would have produced on the uncontended route,
  /// recomputed from its plan.
  struct FFPacket {
    Bytes size = 0;
    Tick ser = 0;         ///< serialization time of `size` (>= 1)
    Tick upl_end = 0;     ///< uplink serialization end (the leaf decides)
    Tick arrive = 0;      ///< switch input arrival (= upl_end + propagation)
    Tick fwd = 0;         ///< switch output (= arrive + pre-drawn stage delay)
    Tick down_start = 0;  ///< downlink serialization start
    Tick down_end = 0;    ///< downlink serialization end
    Tick complete = 0;    ///< delivered (= down_end + propagation + recv)
    std::uint32_t depth = 0;  ///< analytic downlink depth-on-enqueue sample
  };

  /// A demoted packet parked until its uplink serialization end, with its
  /// pre-drawn switch delay; pooled so the event closures stay inline.
  struct FFParked {
    Packet p;
    Tick delay = 0;
  };

  // The per-packet path, one call per port decision.
  void uplink_done(const Packet& p);
  void route_from_leaf(const Packet& p);
  void deliver_to_node(const Packet& p);
  void downlink_done(const Packet& p);
  void complete_packet(const Packet& p);

  // --- flow-forward regime (DESIGN.md §5.12) ---
  bool flowfwd_eligible(NodeId src, NodeId dst) const;
  void flow_forward(MessageId id, NodeId src, NodeId dst, FlowId flow,
                    std::uint32_t num_packets, Bytes full_size, Bytes tail,
                    Callback&& on_injected);
  /// A cleared plan slot (recycled plans keep their vectors' capacity).
  std::uint32_t acquire_flowfwd();
  void release_flowfwd(std::uint32_t plan);
  void flowfwd_injected(std::uint32_t plan);
  void finish_flowfwd(std::uint32_t plan);
  void demote_flowfwd(std::uint32_t plan);
  /// Whether the plan's per-packet event at tick `t`, created at
  /// `created`, would already have run when the running event runs.
  bool ran_before_current(const FlowFwd& ff, Tick t, Tick created) const;
  Packet flowfwd_packet(const FlowFwd& ff, std::uint32_t i) const;
  sim::EventFn parked_arrival(const Packet& p, Tick stage_delay);
  /// The switch-stage span of a flow-forwarded packet that reached the
  /// switch at `arrive` and left it at `fwd`.
  void trace_flowfwd_switch(const FlowFwd& ff, Tick arrive, Tick fwd);
  /// Recomputes a plan's whole schedule into ffwd_pkts_ (seq order) and
  /// ffwd_order_ (service order), for its demotion.
  void expand_flowfwd(const FlowFwd& ff);
  /// A demoted message's downlink state, recovered by replaying its
  /// expanded schedule up to the running event: how many packets (in
  /// service order) have reached the port and how many have left it, and
  /// the flow's DRR visit state. The packet at position `served` is in
  /// service when served < arrived; the ones behind it wait in the flow's
  /// queue.
  struct DownlinkState {
    std::uint32_t arrived = 0;
    std::uint32_t served = 0;
    Bytes deficit = 0;
    bool visited = false;
  };
  DownlinkState replay_downlink(const FlowFwd& ff);

  sim::Engine& engine_;
  NetworkConfig config_;
  int nodes_per_pod_;
  PortStats ports_;  ///< shared by every link below
  std::vector<std::unique_ptr<Switch>> leaves_;
  std::vector<std::unique_ptr<Switch>> spines_;
  std::vector<std::unique_ptr<Link>> uplinks_;
  std::vector<std::unique_ptr<Link>> downlinks_;
  std::vector<std::unique_ptr<Link>> local_channels_;
  /// Trunks indexed [pod][spine].
  std::vector<std::vector<std::unique_ptr<Link>>> leaf_to_spine_;
  std::vector<std::vector<std::unique_ptr<Link>>> spine_to_leaf_;
  SlotPool<InFlight> in_flight_;
  /// Sends so far per flow id: the ordinal keying each message's switch
  /// draws follows the flow's own send order, not the global interleaving.
  std::vector<std::uint32_t> flow_sends_;
  FlowId next_flow_ = 1;
  NetworkCounters counters_;
  /// Message whose packet deliver_to_node() is handing to its downlink (0
  /// otherwise): a demotion it triggers breaks same-tick ties against that
  /// message's place.
  MessageId delivering_ = 0;
  /// Cross-node packet latency in ns.
  obs::LocalHistogram latency_ns_;

  // Flow-forward state. Cooldowns are per-port demotion backoff stamps
  // (eligibility requires now >= stamp); switch_contention_free_ caches
  // the virtual query made once at construction.
  bool flowfwd_ = true;
  bool switch_contention_free_ = false;
  /// Flow-forward plans by slot (the events and guards capture the slot).
  /// A deque, so a plan's address survives new plans being added while
  /// it is in use.
  std::deque<FlowFwd> ffwd_;
  std::vector<std::uint32_t> ffwd_free_;
  /// A demoted plan's expanded schedule (expand_flowfwd).
  std::vector<FFPacket> ffwd_pkts_;
  std::vector<std::uint32_t> ffwd_order_;
  SlotPool<FFParked> ffwd_parked_;
  std::vector<Tick> ffwd_cooldown_up_;
  std::vector<Tick> ffwd_cooldown_down_;

  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace actnet::net
