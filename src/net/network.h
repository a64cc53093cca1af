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
class Counter;
class Histogram;
class Registry;
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

  /// After a flow-forward demotion, the involved ports decline further
  /// flow-forwards for this long. Persistent contention (two ranks
  /// saturating one uplink) would otherwise accept-and-demote every
  /// message, paying for both regimes; the cooldown keeps such traffic on
  /// the plain packet path. Has no effect on uncontended traffic (no
  /// demotions, so no cooldown ever starts).
  Tick flowfwd_cooldown = units::us(25);

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
  /// End-to-end packet latency statistics in microseconds (cross-node only).
  OnlineStats packet_latency_us;
};

class Network {
 public:
  /// Completion callbacks are move-only inline callables; closures beyond
  /// the inline capacity (the MPI rendezvous control chain) spill to the
  /// heap once per message, never per packet event.
  using Callback = sim::EventFn;

  Network(sim::Engine& engine, NetworkConfig config, Rng rng);
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

  /// Flow-forward regime on/off (wired from ACTNET_FLOWFWD at
  /// construction, default on; see DESIGN.md §5.12). It changes RNG draw
  /// order on shared switches, so contended results are
  /// tolerance-equivalent, not bit-identical.
  void set_flow_forward(bool on) { flowfwd_ = on; }
  bool flow_forward() const { return flowfwd_; }

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

  // --- observability ---
  /// Registers aggregate traffic metrics ("net.*") in `r` and wires the
  /// shared link metrics into every port. Called automatically with
  /// obs::default_registry() at construction when obs::enabled().
  void attach_metrics(obs::Registry& r);
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
    Callback on_delivered;
  };
  /// Parks a message's delivery state; returns its id.
  MessageId open_message(std::uint32_t packets, Callback&& on_delivered);
  /// The in_flight_ slot a MessageId carries in its low 32 bits (the high
  /// bits hold a send counter, so ids stay unique as slots are reused).
  static std::uint32_t slot_of(MessageId id) {
    return static_cast<std::uint32_t>(id);
  }
  /// Counts one delivered packet of `id`; the last one completes it.
  void packet_delivered(MessageId id, std::uint32_t packets = 1);

  /// One packet of a flow-forwarded message: the closed-form schedule the
  /// per-packet path would have produced on the uncontended route.
  struct FFPacket {
    Bytes size = 0;
    Tick upl_end = 0;     ///< uplink serialization end
    Tick arrive = 0;      ///< switch input arrival (= upl_end + propagation)
    Tick fwd = 0;         ///< switch output (= arrive + pre-drawn stage delay)
    Tick down_start = 0;  ///< downlink serialization start
    Tick down_end = 0;    ///< downlink serialization end
    Tick complete = 0;    ///< delivered (= down_end + propagation + recv)
    std::uint32_t depth = 0;  ///< analytic downlink depth-on-enqueue sample
  };

  /// A message advanced in closed form. Lives from send() until its
  /// completion event (or demotion); both ends of the route hold a guard
  /// pointing back at it.
  struct FlowFwd {
    MessageId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    FlowId flow = 0;
    Tick t0 = 0;
    Tick t_inj = 0;
    Tick t_done = 0;
    std::vector<FFPacket> pkts;        ///< seq order
    std::vector<std::uint32_t> order;  ///< downlink service order (seq idx)
    sim::Engine::CancelToken inj_ev;
    sim::Engine::CancelToken done_ev;
    Callback on_injected;
    bool injected = false;
  };

  /// A demoted packet parked for its remaining fixed-time hops (pre-drawn
  /// switch delay, propagation, receive overhead); pooled so the event
  /// closures stay inline.
  struct FFParked {
    Packet p;
    Tick delay = 0;
  };

  void deliver_packet(const Packet& p);
  void route_from_leaf(const Packet& p);
  void deliver_to_node(const Packet& p);
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
  Packet flowfwd_packet(const FlowFwd& ff, std::uint32_t i) const;
  sim::EventFn parked_arrival(const Packet& p, Tick stage_delay);
  void account_delivery(const FlowFwd& ff, const FFPacket& pkt);
  void trace_flowfwd_switch(const FlowFwd& ff, const FFPacket& pkt);
  /// DRR visit state of a flow-forwarded message's downlink flow at a
  /// given instant, recovered by replaying the closed-form schedule.
  struct DownlinkState {
    Bytes deficit = 0;
    bool visited = false;
  };
  DownlinkState replay_downlink(FlowFwd& ff, Tick bound);

  sim::Engine& engine_;
  NetworkConfig config_;
  int nodes_per_pod_;
  std::vector<std::unique_ptr<Switch>> leaves_;
  std::vector<std::unique_ptr<Switch>> spines_;
  std::vector<std::unique_ptr<Link>> uplinks_;
  std::vector<std::unique_ptr<Link>> downlinks_;
  std::vector<std::unique_ptr<Link>> local_channels_;
  /// Trunks indexed [pod][spine].
  std::vector<std::vector<std::unique_ptr<Link>>> leaf_to_spine_;
  std::vector<std::vector<std::unique_ptr<Link>>> spine_to_leaf_;
  SlotPool<InFlight> in_flight_;
  MessageId next_msg_id_ = 1;
  FlowId next_flow_ = 1;
  NetworkCounters counters_;

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
  SlotPool<FFParked> ffwd_parked_;
  std::vector<Tick> ffwd_cooldown_up_;
  std::vector<Tick> ffwd_cooldown_down_;

  // Observability (null = off). Drops/retries are registered for parity
  // with real fabrics but stay 0: the model is lossless (credit-based
  // link-level flow control, like InfiniBand).
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_packets_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_ff_messages_ = nullptr;
  obs::Counter* m_ff_demotions_ = nullptr;
  obs::Counter* m_ff_fallback_ = nullptr;
  obs::Histogram* m_latency_ns_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace actnet::net
