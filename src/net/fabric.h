// Partitioned k-ary fat-tree fabric (DESIGN.md §5.14).
//
// The Network class models the paper's measured system faithfully but
// holds whole-topology mutable state (message table, per-flow send
// ordinals, counters) behind one engine. Fabric is the datacenter-scale
// sibling built on the partitioned runtime's per-domain engines:
//
//  * Domain layout follows the topology: pod p (its leaf switch, node
//    endpoints, NIC links, and the leaf ends of its trunks) is domain p;
//    the spine block (all spine switches plus the spine ends of every
//    trunk) is domain P. All state is domain-confined — the only
//    cross-domain interaction is a packet crossing a trunk, which travels
//    as a PartitionedEngine channel message timestamped one trunk
//    propagation ahead. The trunk propagation IS the conservative
//    lookahead.
//
//  * Switch stage delays are keyed draws (keyed_stage_delay, shared with
//    Network's OutputQueuedSwitch) on (seed, switch, flow, message,
//    packet): no sequential stream exists to disagree about, so results
//    are independent of partition count and message admission order by
//    construction.
//
//  * Per-port DRR queueing, packetization, and NIC overheads reuse
//    net::Link unchanged — each link simply binds to its domain's engine.
//    A message enters its source NIC as one transmit_train() call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/pool.h"
#include "net/switch.h"
#include "net/types.h"
#include "obs/metrics.h"
#include "sim/partition.h"
#include "util/units.h"

namespace actnet::net {

/// Per-domain traffic counters (single-writer: the owning domain).
struct FabricCounters {
  std::uint64_t messages_sent = 0;       ///< by source domain
  std::uint64_t messages_delivered = 0;  ///< by destination domain
  std::uint64_t packets_delivered = 0;
  Bytes bytes_sent = 0;
};

class Fabric {
 public:
  using Callback = sim::EventFn;

  /// `config` must describe an output-queued fabric (the shared-queue
  /// M/G/1 switch couples packets through one server and cannot be
  /// partitioned). `seed` keys every per-packet stage-delay draw.
  /// The third argument is ignored: the window loop runs on the calling
  /// thread. It stays only because the campaign benchmark's driver still
  /// passes a worker count, and goes with the next benchmark change.
  Fabric(const NetworkConfig& config, std::uint64_t seed, int workers = 0);
  /// Publishes the port stats of every domain into obs::default_registry()
  /// ("fabric.drr_rounds", "fabric.port.depth", "fabric.port.depth_peak").
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int nodes() const { return config_.nodes; }
  int pods() const { return pods_; }
  int spines() const { return pods_ > 1 ? config_.spines : 0; }
  /// Pods, plus the spine block when the topology has one.
  int domains() const { return pe_.domains(); }
  int pod_of(NodeId n) const { return static_cast<int>(n) / nodes_per_pod_; }
  /// A node's domain is its pod (the spine block owns no nodes).
  int domain_of(NodeId n) const { return pod_of(n); }
  const NetworkConfig& config() const { return config_; }

  sim::PartitionedEngine& engine() { return pe_; }
  sim::Engine& domain_engine(int d) { return pe_.domain(d); }

  /// Allocates a contiguous block of fair-queueing flow ids. Setup-time
  /// only (before run_until).
  FlowId allocate_flows(int count);

  /// Schedules `fn` at absolute time `t` on `n`'s domain engine. Call
  /// during setup or from an event already running in that domain.
  void at_node(NodeId n, Tick t, sim::EventFn fn) {
    pe_.domain(domain_of(n)).schedule_at(t, std::move(fn));
  }

  /// Sends `size` bytes src -> dst (src != dst). Must be invoked during
  /// setup or from an event running in src's domain. `on_delivered` (may
  /// be null) fires in DST's domain when the last packet is received —
  /// which is where a reply send belongs.
  void send(NodeId src, NodeId dst, FlowId flow, Bytes size,
            Callback on_delivered);

  std::uint64_t run_until(Tick t) { return pe_.run_until(t); }

  const FabricCounters& counters(int domain) const {
    return dom_[static_cast<std::size_t>(domain)].counters;
  }
  FabricCounters total_counters() const;
  const SwitchCounters& leaf_counters(int pod) const {
    return dom_[static_cast<std::size_t>(pod)].leaf;
  }
  const SwitchCounters& spine_counters(int s) const {
    return dom_.back().spine[static_cast<std::size_t>(s)];
  }
  const Link& uplink(NodeId n) const {
    return *uplinks_[static_cast<std::size_t>(n)];
  }
  const Link& downlink(NodeId n) const {
    return *downlinks_[static_cast<std::size_t>(n)];
  }

  /// Canonical fixed-order dump of every regime-independent observable:
  /// per-port packet/byte/busy counters, per-switch stage statistics, the
  /// queue-depth histogram summed over domains, per-domain traffic
  /// counters and event counts. Two runs that simulated the same system byte-compare equal
  /// here regardless of partition count — the conformance surface the
  /// determinism harness diffs.
  std::string digest() const;

 private:
  struct InFlight {
    std::uint32_t remaining;
    Callback on_delivered;
  };
  /// Uplink-leg record of one message (lives in the source domain from
  /// send() until its last packet clears the source NIC).
  struct MsgRec {
    MessageId id;
    NodeId src;
    NodeId dst;
    FlowId flow;
    std::uint32_t count;
    std::uint32_t arrived;
    Bytes full;
    Bytes tail;
    Tick t0;
  };
  struct DomainState {
    std::unordered_map<MessageId, InFlight> in_flight;  ///< dst-side
    SlotPool<MsgRec> msgs;                              ///< src-side
    SwitchCounters leaf;               ///< pod domains only
    std::vector<SwitchCounters> spine; ///< spine domain only
    FabricCounters counters;
    /// Stats of the ports that serialize in this domain.
    PortStats ports;
    std::uint64_t next_msg = 1;
  };

  static Bytes packet_size(const MsgRec& r, std::uint32_t i) {
    return (r.tail > 0 && i + 1 == r.count) ? r.tail : r.full;
  }
  int spine_for(FlowId flow) const {
    return static_cast<int>(flow % static_cast<FlowId>(config_.spines));
  }
  DomainState& dom(int d) { return dom_[static_cast<std::size_t>(d)]; }
  /// Every domain's port stats, merged.
  PortStats port_totals() const;

  /// keyed_stage_delay at switch `sw` (leaves are 0..pods-1, spines
  /// pods..pods+spines-1), whose key is mix64(mix64(seed) ^ sw).
  Tick stage_delay(std::uint32_t sw, const Packet& p, SwitchCounters& c);

  void uplink_arrival(int src_domain, std::uint32_t slot, std::uint32_t i);
  void leaf_forward_src(const Packet& p);
  void trunk_up_arrive(const Packet& p);
  void packet_at_spine(const Packet& p);
  void spine_forward(const Packet& p);
  void packet_at_dst_leaf(const Packet& p);
  void leaf_forward_dst(const Packet& p);
  void downlink_arrive(const Packet& p);
  void complete_packet(const Packet& p);

  NetworkConfig config_;
  std::uint64_t seed_key_;  ///< mix64(seed)
  KeyedStage stage_;        ///< every switch's stage (one shared config)
  int pods_;
  int nodes_per_pod_;
  int spine_domain_;  ///< == pods_ when pods_ > 1, else unused
  sim::PartitionedEngine pe_;
  /// Sized once at construction: links hold references to its PortStats.
  std::vector<DomainState> dom_;
  std::vector<std::unique_ptr<Link>> uplinks_;
  std::vector<std::unique_ptr<Link>> downlinks_;
  /// Trunks [pod][spine]. The uplink half serializes at the leaf (pod
  /// domain, zero link propagation — the trunk flight time is carried by
  /// the channel-message timestamp); the downlink half at the spine.
  std::vector<std::vector<std::unique_ptr<Link>>> leaf_to_spine_;
  std::vector<std::vector<std::unique_ptr<Link>>> spine_to_leaf_;
  FlowId next_flow_ = 1;
};

}  // namespace actnet::net
