#include "net/network.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/error.h"

namespace actnet::net {
namespace {

/// After a flow-forward demotion, the involved ports decline further
/// flow-forwards for this long. Persistent contention (two ranks
/// saturating one uplink) would otherwise accept-and-demote every message,
/// paying for both regimes; the cooldown keeps such traffic on the plain
/// packet path. Has no effect on uncontended traffic (no demotions, so no
/// cooldown ever starts).
constexpr Tick kFlowFwdCooldown = units::us(25);

/// The sequence places a message takes at send, one per kind of event the
/// flow-forward regime posts or restores, so two of one message's events
/// that share their tick and creation tick still run in the per-packet
/// path's order: a downlink serialization end before a switch exit (as
/// replay_downlink orders them), a switch exit before the uplink
/// serialization end created with it (an uplink serialization end routes
/// its packet before it starts the next one). A completion ties with none.
enum Place : std::uint64_t {
  kDownlinkEnd,
  kSwitchExit,
  kUplinkEnd,
  kCompletion,
  kPlaces
};

std::unique_ptr<Switch> make_switch(sim::Engine& engine,
                                    const NetworkConfig& config, Rng rng) {
  switch (config.switch_kind) {
    case SwitchKind::kOutputQueued:
      return std::make_unique<OutputQueuedSwitch>(engine, config.output_queued,
                                                  rng());
    case SwitchKind::kSharedQueue:
      return std::make_unique<SharedQueueSwitch>(
          engine,
          queueing::make_switch_profile(config.sq_service_mean_ns,
                                        config.sq_service_stddev_ns,
                                        /*tail_prob=*/0.015,
                                        /*tail_offset=*/800.0,
                                        /*tail_mean_excess=*/2000.0),
          rng);
  }
  ACTNET_CHECK_MSG(false, "unknown switch kind");
}

}  // namespace

NetworkConfig NetworkConfig::k_ary_fat_tree(int k) {
  ACTNET_CHECK_MSG(k >= 2 && k % 2 == 0,
                   "k-ary fat tree needs an even k >= 2, got " << k);
  NetworkConfig c;
  c.k = k;
  c.pods = k;
  c.spines = k / 2;
  c.nodes = k * (k / 2);
  c.trunk_propagation = units::ns(500);
  return c;
}

Network::Network(sim::Engine& engine, NetworkConfig config, Rng rng)
    : engine_(engine), config_(config) {
  ACTNET_CHECK(config_.nodes >= 1);
  ACTNET_CHECK(config_.mtu > 0);
  ACTNET_CHECK(config_.pods >= 1);
  ACTNET_CHECK_MSG(config_.nodes % config_.pods == 0,
                   "nodes must split evenly across pods");
  // The shared-queue server starts packets in route() call order, which is
  // arrival order only when every input has the same cable delay; a leaf
  // of a multi-pod network also takes longer trunk cables.
  ACTNET_CHECK_MSG(
      config_.switch_kind != SwitchKind::kSharedQueue || config_.pods == 1,
      "the shared-queue switch model is single-pod only");
  nodes_per_pod_ = config_.nodes / config_.pods;

  for (int p = 0; p < config_.pods; ++p)
    leaves_.push_back(make_switch(engine_, config_, rng.split()));
  uplinks_.reserve(config_.nodes);
  downlinks_.reserve(config_.nodes);
  local_channels_.reserve(config_.nodes);
  // Switch-facing ports have no propagation of their own: the next stage
  // adds the cable when it is decided at serialization end, so a packet
  // costs no separate cable-crossing event.
  for (int n = 0; n < config_.nodes; ++n) {
    uplinks_.push_back(std::make_unique<Link>(
        engine_, ports_, config_.link_bandwidth, 0, config_.drr_quantum));
    downlinks_.push_back(std::make_unique<Link>(
        engine_, ports_, config_.link_bandwidth, 0, config_.drr_quantum));
    local_channels_.push_back(std::make_unique<Link>(
        engine_, ports_, config_.local_bandwidth, config_.local_latency,
        config_.drr_quantum));
  }

  if (config_.pods > 1) {
    ACTNET_CHECK(config_.spines >= 1);
    double trunk = config_.trunk_factor;
    if (trunk <= 0.0)
      trunk = static_cast<double>(nodes_per_pod_) / config_.spines;
    const double trunk_bw = config_.link_bandwidth * trunk;
    for (int s = 0; s < config_.spines; ++s)
      spines_.push_back(make_switch(engine_, config_, rng.split()));
    leaf_to_spine_.resize(config_.pods);
    spine_to_leaf_.resize(config_.pods);
    for (int p = 0; p < config_.pods; ++p) {
      for (int s = 0; s < config_.spines; ++s) {
        leaf_to_spine_[p].push_back(std::make_unique<Link>(
            engine_, ports_, trunk_bw, 0, config_.drr_quantum));
        spine_to_leaf_[p].push_back(std::make_unique<Link>(
            engine_, ports_, trunk_bw, 0, config_.drr_quantum));
      }
    }
  }

  // Flow-forward regime (DESIGN.md §5.12). Requires a contention-free
  // switch stage — the shared-queue ablation model couples packets and
  // stays packet-level.
  switch_contention_free_ = leaves_[0]->contention_free();
  ffwd_cooldown_up_.assign(static_cast<std::size_t>(config_.nodes), 0);
  ffwd_cooldown_down_.assign(static_cast<std::size_t>(config_.nodes), 0);
}

Network::~Network() {
  obs::Registry& r = obs::default_registry();
  static obs::Counter& messages = r.counter("net.messages_sent");
  static obs::Counter& packets = r.counter("net.packets_delivered");
  static obs::Counter& bytes = r.counter("net.bytes_sent");
  static obs::Counter& ff_messages = r.counter("net.flowfwd.messages");
  static obs::Counter& ff_demotions = r.counter("net.flowfwd.demotions");
  static obs::Counter& ff_fallback = r.counter("net.flowfwd.fallback_packets");
  static obs::Histogram& latency_ns = r.histogram("net.packet_latency_ns");
  static obs::Counter& drr_rounds = r.counter("net.link.drr_rounds");
  static obs::Histogram& depth = r.histogram("net.port.queue_depth");
  static obs::Gauge& depth_peak = r.gauge("net.port.queue_depth_peak");
  messages.inc(counters_.messages_sent);
  packets.inc(counters_.packets_delivered);
  bytes.inc(static_cast<std::uint64_t>(counters_.bytes_sent));
  ff_messages.inc(counters_.flowfwd_messages);
  ff_demotions.inc(counters_.flowfwd_demotions);
  ff_fallback.inc(counters_.flowfwd_fallback_packets);
  latency_ns.merge(latency_ns_);
  drr_rounds.inc(ports_.drr_rounds);
  depth.merge(ports_.depth);
  depth_peak.max(static_cast<double>(ports_.depth.max()));
}

void Network::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  trace_pid_ = tracer_->register_process("net");
  for (int n = 0; n < config_.nodes; ++n) {
    tracer_->name_thread(trace_pid_, n, "node" + std::to_string(n));
    uplinks_[n]->set_trace(tracer_, trace_pid_,
                           "up" + std::to_string(n) + " qdepth");
    downlinks_[n]->set_trace(tracer_, trace_pid_,
                             "down" + std::to_string(n) + " qdepth");
  }
}

int Network::pod_of(NodeId n) const {
  ACTNET_CHECK(n >= 0 && n < config_.nodes);
  return n / nodes_per_pod_;
}

const SwitchCounters& Network::leaf_counters(int pod) const {
  ACTNET_CHECK(pod >= 0 && pod < config_.pods);
  return leaves_[pod]->counters();
}

const SwitchCounters& Network::spine_counters(int spine) const {
  ACTNET_CHECK(spine >= 0 && spine < static_cast<int>(spines_.size()));
  return spines_[spine]->counters();
}

const Link& Network::uplink(NodeId n) const {
  ACTNET_CHECK(n >= 0 && n < config_.nodes);
  return *uplinks_[n];
}

const Link& Network::downlink(NodeId n) const {
  ACTNET_CHECK(n >= 0 && n < config_.nodes);
  return *downlinks_[n];
}

FlowId Network::allocate_flows(int count) {
  ACTNET_CHECK(count > 0);
  const FlowId base = next_flow_;
  next_flow_ += static_cast<FlowId>(count);
  return base;
}

MessageId Network::send(NodeId src, NodeId dst, FlowId flow, Bytes size,
                        Callback&& on_injected, Callback&& on_delivered) {
  // Per-message (not per-packet) scope: send() runs inside the engine's
  // drain frame, so this records under the "engine;net" collapsed path.
  obs::ProfScope prof(obs::Subsystem::kNet);
  ACTNET_CHECK(src >= 0 && src < config_.nodes);
  ACTNET_CHECK(dst >= 0 && dst < config_.nodes);
  ACTNET_CHECK(size > 0);

  ++counters_.messages_sent;
  counters_.bytes_sent += size;

  if (src == dst) {
    // Shared-memory path: one serialized transfer through the node-local
    // channel; "injection" completes when serialization does.
    const MessageId id = open_message(flow, 1, std::move(on_delivered));
    local_channels_[src]->transmit(flow, size, std::move(on_injected),
                                   [this, id] { packet_delivered(id); });
    return id;
  }

  const auto full_packets = static_cast<std::uint32_t>(size / config_.mtu);
  const Bytes tail = size % config_.mtu;
  const std::uint32_t num_packets = full_packets + (tail > 0 ? 1 : 0);
  const MessageId id = open_message(flow, num_packets, std::move(on_delivered));

  if (flowfwd_eligible(src, dst)) {
    flow_forward(id, src, dst, flow, num_packets, config_.mtu, tail,
                 std::move(on_injected));
    return id;
  }

  // The whole message goes down as ONE packet train: the uplink parks a
  // single pooled arrival record for it. The per-packet arrival closure
  // rebuilds the Packet from this 48-byte capture, so nothing is allocated
  // per packet.
  // Injection completes when the *last* packet of the message has been
  // serialized (per-flow FIFO order guarantees it serializes last).
  const Tick now = engine_.now();
  uplinks_[src]->transmit_train(
      flow, num_packets, config_.mtu, tail, std::move(on_injected),
      [this, id, src, dst, flow, now, full_packets, tail](std::uint32_t i) {
        Packet p;
        p.msg_id = id;
        p.seq = i;
        p.src = src;
        p.dst = dst;
        p.flow = flow;
        p.size = (i < full_packets) ? config_.mtu : tail;
        p.injected_at = now;
        uplink_done(p);
      });
  return id;
}

// The per-packet path costs three events per packet and one per message:
// the uplink's serialization end, the switch exit, the downlink's
// serialization end, and the completion of the message's last packet.
// Every fixed delay in between (cables, receive overhead) is added when
// the next stage is decided instead of crossed by an event of its own.

void Network::uplink_done(const Packet& p) {
  // The packet's last bit has left the NIC. It reaches the source pod's
  // leaf one cable later, and the leaf decides its exit now; the switch
  // span comes from those two ticks, so tracing schedules nothing.
  const Tick arrive = engine_.now() + config_.link_propagation;
  const Tick exit = leaves_[pod_of(p.src)]->route(
      p, arrive, [this](const Packet& routed) { route_from_leaf(routed); });
  if (tracer_ != nullptr && tracer_->active(arrive))
    tracer_->complete(trace_pid_, p.src, arrive, exit - arrive, "switch");
}

void Network::route_from_leaf(const Packet& p) {
  const int src_pod = pod_of(p.src);
  const int dst_pod = pod_of(p.dst);
  if (src_pod == dst_pod) {
    deliver_to_node(p);
    return;
  }
  // Cross-pod: up a statically chosen spine (per-flow hashing keeps a
  // flow's packets ordered, as ECMP-style fabrics do), then down to the
  // destination leaf, which routes onto the node's port. Each trunk's
  // serialization end hands the packet to the next switch with the trunk
  // cable added.
  leaf_to_spine_[src_pod][spine_of(p)]->transmit(
      p.flow, p.size, nullptr, [this, p] {
        spines_[spine_of(p)]->route(
            p, engine_.now() + config_.trunk_prop(),
            [this](const Packet& at_spine) {
              spine_to_leaf_[pod_of(at_spine.dst)][spine_of(at_spine)]
                  ->transmit(at_spine.flow, at_spine.size, nullptr,
                             [this, at_spine] {
                               leaves_[pod_of(at_spine.dst)]->route(
                                   at_spine,
                                   engine_.now() + config_.trunk_prop(),
                                   [this](const Packet& routed) {
                                     deliver_to_node(routed);
                                   });
                             });
            });
      });
}

void Network::deliver_to_node(const Packet& p) {
  delivering_ = p.msg_id;
  downlinks_[p.dst]->transmit(p.flow, p.size, nullptr,
                              [this, p] { downlink_done(p); });
  delivering_ = 0;
}

void Network::downlink_done(const Packet& p) {
  // The packet's last bit has left the switch port; the node has it one
  // cable plus the receive overhead later. Unless it is its message's last
  // outstanding packet, nothing waits on that tick, so the packet is
  // accounted now with it. The last one completes by event, so
  // on_delivered fires on time (and after every other packet's tick: one
  // downlink serializes all of a message's packets).
  const Tick complete =
      engine_.now() + config_.link_propagation + config_.recv_overhead;
  if (in_flight_.at(slot_of(p.msg_id)).remaining > 1) {
    account_packet(p.dst, p.injected_at, complete);
    packet_delivered(p.msg_id);  // not the last: fires nothing
    return;
  }
  engine_.schedule_at(complete, [this, p] { complete_packet(p); });
}

// ---------------------------------------------------------------------------
// Flow-forward regime (DESIGN.md §5.12).
//
// When a message's whole route is idle there is nothing for DRR or the
// switch stage to arbitrate, so the per-packet schedule is a closed form:
// uplink serialization ends stack back-to-back, each packet crosses the
// switch after an independently pre-drawn stage delay, and the downlink
// serves arrivals FIFO. flow_forward() evaluates that schedule at send
// time and posts exactly two events — injection and completion — instead
// of three per packet and one per message. Both route endpoints hold a
// demotion guard: the first competing enqueue re-materializes the
// message's remaining packets into the exact packet-level state the
// per-packet path would have reached, so contended dynamics stay exact
// from that instant on. Every event the regime posts or restores takes
// one of the sequence places its message took at send.
// ---------------------------------------------------------------------------

bool Network::flowfwd_eligible(NodeId src, NodeId dst) const {
  // Tracing does NOT disable flow-forward — observability must never
  // steer the simulation (test_obs). The analytic schedule knows every
  // per-packet timestamp, so it emits the same switch/packet spans the
  // per-packet path would have recorded.
  if (!flowfwd_ || !switch_contention_free_) return false;
  // Cross-pod routes traverse trunks and a spine stage; only the
  // leaf-local route (the paper's single-switch setting) fast-forwards.
  if (pod_of(src) != pod_of(dst)) return false;
  const Tick now = engine_.now();
  if (now < ffwd_cooldown_up_[static_cast<std::size_t>(src)] ||
      now < ffwd_cooldown_down_[static_cast<std::size_t>(dst)])
    return false;
  return uplinks_[src]->idle() && downlinks_[dst]->idle();
}

Packet Network::flowfwd_packet(const FlowFwd& ff, std::uint32_t i) const {
  Packet p;
  p.msg_id = ff.id;
  p.seq = i;
  p.src = ff.src;
  p.dst = ff.dst;
  p.flow = ff.flow;
  p.size = ff.size_of(i);
  p.injected_at = ff.t0;
  return p;
}

sim::EventFn Network::parked_arrival(const Packet& p, Tick stage_delay) {
  // Fired at the (re-materialized) packet's uplink serialization end: the
  // leaf's decision, with the delay pre-drawn at accept time — no second
  // draw, no double counting.
  const std::uint32_t slot = ffwd_parked_.put(FFParked{p, stage_delay});
  return [this, slot] {
    const FFParked r = ffwd_parked_.take(slot);
    const Tick arrive = engine_.now() + config_.link_propagation;
    if (tracer_ != nullptr && tracer_->active(arrive))
      tracer_->complete(trace_pid_, r.p.src, arrive, r.delay, "switch");
    engine_.schedule_at(arrive + r.delay,
                        [this, p = r.p] { deliver_to_node(p); });
  };
}

void Network::account_packet(NodeId dst, Tick injected_at, Tick complete) {
  ++counters_.packets_delivered;
  latency_ns_.add(static_cast<std::uint64_t>(complete - injected_at));
  if (tracer_ != nullptr && tracer_->active(injected_at)) {
    // Full lifecycle span: inject -> route -> serialize -> deliver, one
    // lane per destination node.
    tracer_->complete(trace_pid_, dst, injected_at, complete - injected_at,
                      "packet");
  }
}

void Network::trace_flowfwd_switch(const FlowFwd& ff, Tick arrive, Tick fwd) {
  // The switch-stage span uplink_done() records on the packet path; the
  // closed-form schedule already fixed [arrive, fwd).
  if (tracer_ != nullptr && tracer_->active(arrive))
    tracer_->complete(trace_pid_, ff.src, arrive, fwd - arrive, "switch");
}

bool Network::ran_before_current(const FlowFwd& ff, Tick t,
                                 Tick created) const {
  const sim::Engine::Order order = engine_.order_vs_current(t, created);
  if (order != sim::Engine::Order::kTie)
    return order == sim::Engine::Order::kBefore;
  // Same tick and creation tick: the two are ordered by their messages'
  // sends, the order in which the per-packet path creates them when both
  // event chains start at their sends. A packet handed to its downlink
  // stands for its own message; any other running event for its place.
  const std::uint64_t running =
      delivering_ != 0 ? place_of(delivering_) : engine_.current().seq;
  return place_of(ff.id) < running;
}

void Network::expand_flowfwd(const FlowFwd& ff) {
  const auto n = static_cast<std::uint32_t>(ff.hops.size());
  ffwd_pkts_.resize(n);
  ffwd_order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FFPacket& pk = ffwd_pkts_[i];
    pk.size = ff.size_of(i);
    pk.ser = ff.ser_of(i);
    pk.upl_end = ff.upl_end(i);
    pk.arrive = pk.upl_end + config_.link_propagation;
  }
  Tick free = std::numeric_limits<Tick>::min();
  for (std::uint32_t m = 0; m < n; ++m) {
    const FFHop& h = ff.hops[m];
    ffwd_order_[m] = h.seq;
    FFPacket& pk = ffwd_pkts_[h.seq];
    pk.fwd = h.fwd;
    pk.depth = h.depth;
    pk.down_start = std::max(h.fwd, free);
    pk.down_end = pk.down_start + pk.ser;
    free = pk.down_end;
    pk.complete = free + config_.link_propagation + config_.recv_overhead;
  }
}

Network::DownlinkState Network::replay_downlink(const FlowFwd& ff) {
  // Replays the slow path's downlink decisions from the expanded schedule
  // up to the running event: which arrivals found the port free, which
  // queued, and the flow's DRR visit state (deficit/visited) where the
  // replay stops. Single flow, so every ring rotation immediately
  // re-credits the same flow.
  const Bytes quantum = config_.drr_quantum;
  DownlinkState st;
  bool in_ring = false;
  // The FIFO of waiting positions in service order. Arrivals are visited
  // in order and every arrival queues while the port is busy, so the
  // waiting set is always the contiguous run [q_front, q_front + q_len).
  int q_front = 0;
  int q_len = 0;
  int cur = -1;  // position in service, -1 = free
  const auto pkt_at = [&](int m) -> const FFPacket& {
    return ffwd_pkts_[ffwd_order_[static_cast<std::size_t>(m)]];
  };
  const auto pop_next = [&] {
    const FFPacket& nx = pkt_at(q_front);
    if (!st.visited) {
      st.visited = true;
      st.deficit += quantum;
    }
    while (st.deficit < nx.size) st.deficit += quantum;  // lone-flow rotations
    st.deficit -= nx.size;
    cur = q_front++;
    if (--q_len == 0) {
      st.deficit = 0;
      in_ring = false;
      st.visited = false;
    }
  };
  const auto complete_cur = [&] {
    if (q_len == 0)
      cur = -1;
    else
      pop_next();
  };
  const auto count = static_cast<int>(ffwd_order_.size());
  int m = 0;
  for (; m < count; ++m) {
    const FFPacket& pk = pkt_at(m);
    // The switch exit was created at the uplink's serialization end.
    if (!ran_before_current(ff, pk.fwd, pk.upl_end)) break;
    // Service completions strictly before this arrival — and at the same
    // tick when the finish event (created at down_start) was created no
    // later than the arrival's switch exit (created at the uplink's
    // serialization end): the engine's same-tick order.
    while (cur >= 0 && (pkt_at(cur).down_end < pk.fwd ||
                        (pkt_at(cur).down_end == pk.fwd &&
                         pkt_at(cur).down_start <= pk.upl_end)))
      complete_cur();
    if (cur < 0) {
      cur = m;
    } else {
      if (q_len == 0) q_front = m;
      ++q_len;
      if (!in_ring) {
        in_ring = true;
        st.deficit = 0;
        st.visited = false;
      }
    }
  }
  while (cur >= 0 &&
         ran_before_current(ff, pkt_at(cur).down_end, pkt_at(cur).down_start))
    complete_cur();
  st.arrived = static_cast<std::uint32_t>(m);
  st.served = static_cast<std::uint32_t>(cur >= 0 ? cur : m);
  return st;
}

void Network::flow_forward(MessageId id, NodeId src, NodeId dst, FlowId flow,
                           std::uint32_t num_packets, Bytes full_size,
                           Bytes tail, Callback&& on_injected) {
  const Tick t0 = engine_.now();
  const Tick prop = config_.link_propagation;
  const double bw = config_.link_bandwidth;
  Switch& leaf = *leaves_[pod_of(src)];

  const std::uint32_t plan = acquire_flowfwd();
  FlowFwd& ff = ffwd_[plan];
  ff.id = id;
  ff.src = src;
  ff.dst = dst;
  ff.flow = flow;
  ff.t0 = t0;
  // Two sizes, two serialization times: computed once per message.
  ff.full_count = num_packets - (tail > 0 ? 1 : 0);
  ff.full_size = full_size;
  ff.tail = tail;
  ff.full_ser = std::max<Tick>(1, units::serialization(full_size, bw));
  ff.tail_ser = tail > 0 ? std::max<Tick>(1, units::serialization(tail, bw))
                         : ff.full_ser;
  ff.bytes = full_size * ff.full_count + tail;
  ff.on_injected = std::move(on_injected);
  ff.hops.resize(num_packets);
  FFHop* const hops = ff.hops.data();

  // Uplink and switch: packets serialize back-to-back from t0. The switch
  // stage is contention-free and its draws are keyed per packet, so each
  // packet's delay is drawn now and equals the one the per-packet path
  // would draw on arrival, however other messages interleave. The
  // downlink serves arrivals in switch-output order; inserting each
  // packet behind the ones with equal ticks keeps them in sequence order,
  // exactly as the engine would. Insertion, because arrivals are already
  // nearly in order.
  const KeyedDraws draws = leaf.flowfwd_draws(flow, id);
  Tick t = t0;
  Tick delays = 0;
  for (std::uint32_t i = 0; i < num_packets; ++i) {
    t += ff.ser_of(i);
    const Tick d = draws.delay(i);
    delays += d;
    const Tick fwd = t + prop + d;
    std::uint32_t j = i;
    for (; j > 0 && fwd < hops[j - 1].fwd; --j) hops[j] = hops[j - 1];
    hops[j] = FFHop{fwd, i, 0};
  }
  ff.t_inj = t;
  leaf.credit_flowfwd(num_packets, ff.bytes, delays);

  // Downlink, FIFO: each packet starts when it has left the switch and the
  // one before it has left the port. Its depth sample is the per-packet
  // path's: 1 when it finds the port free, else the queue it joins. The
  // packet at position c is the one in service when hop m arrives; a
  // serialization end at the arrival's own tick ran first when it was
  // created (at its down_start) no later than the arrival's switch exit
  // (at the uplink's serialization end) — the engine's same-tick order.
  Tick free = std::numeric_limits<Tick>::min();
  std::uint32_t c = 0;
  Tick c_start = 0;
  Tick c_end = 0;
  for (std::uint32_t m = 0; m < num_packets; ++m) {
    FFHop& h = hops[m];
    const Tick start = std::max(h.fwd, free);
    free = start + ff.ser_of(h.seq);
    const Tick created = ff.upl_end(h.seq);
    while (c < m &&
           (c_end < h.fwd || (c_end == h.fwd && c_start <= created))) {
      if (++c == m) break;
      c_start = std::max(hops[c].fwd, c_end);
      c_end = c_start + ff.ser_of(hops[c].seq);
    }
    if (c == m) {
      h.depth = 1;
      c_start = start;
      c_end = free;
    } else {
      h.depth = m - c;
    }
  }

  // Accept-time accounting the per-packet path would have produced at t0:
  // the uplink's enqueue-depth samples (1..n, as transmit_train records).
  // Uplink packet/byte/busy counters are credited at t_inj, downlink
  // counters and depth samples at completion, so a demotion can credit
  // exactly the started portion instead.
  ports_.depth.add_run(num_packets);

  // Each event stands in for a per-packet one and takes its place among
  // same-tick events: injection for the last packet's uplink serialization
  // end (created as that packet started serializing), completion for the
  // last packet's completion (created at its downlink serialization end).
  const std::uint64_t place = place_of(id);
  ff.inj_ev = engine_.schedule_cancellable_as_of(
      ff.t_inj - ff.ser_of(num_packets - 1), place + kUplinkEnd, ff.t_inj,
      [this, plan] { flowfwd_injected(plan); });
  ff.done_ev = engine_.schedule_cancellable_as_of(
      free, place + kCompletion,
      free + prop + config_.recv_overhead,
      [this, plan] { finish_flowfwd(plan); });
  uplinks_[src]->arm_flowfwd_guard([this, plan] { demote_flowfwd(plan); });
  downlinks_[dst]->arm_flowfwd_guard([this, plan] { demote_flowfwd(plan); });

  ++counters_.flowfwd_messages;
}

std::uint32_t Network::acquire_flowfwd() {
  if (ffwd_free_.empty()) {
    ffwd_.emplace_back();
    return static_cast<std::uint32_t>(ffwd_.size() - 1);
  }
  const std::uint32_t plan = ffwd_free_.back();
  ffwd_free_.pop_back();
  return plan;
}

void Network::release_flowfwd(std::uint32_t plan) {
  FlowFwd& ff = ffwd_[plan];
  ff.id = 0;
  ff.hops.clear();
  ff.inj_ev = {};
  ff.done_ev = {};
  ff.on_injected = nullptr;
  ff.injected = false;
  ffwd_free_.push_back(plan);
}

void Network::flowfwd_injected(std::uint32_t plan) {
  FlowFwd& ff = ffwd_[plan];
  ACTNET_CHECK(ff.id != 0);
  ff.injected = true;
  // The message has fully left the uplink: credit the port (busy time is
  // exactly the back-to-back serialization span) and release its guard so
  // later traffic from this node no longer demotes the message.
  uplinks_[ff.src]->credit_flowfwd(ff.hops.size(), ff.bytes,
                                   ff.t_inj - ff.t0);
  uplinks_[ff.src]->disarm_flowfwd_guard();
  if (ff.on_injected) {
    Callback cb = std::move(ff.on_injected);
    cb();  // may reenter send(); ff is not touched afterwards
  }
}

void Network::finish_flowfwd(std::uint32_t plan) {
  FlowFwd& ff = ffwd_[plan];
  ACTNET_CHECK(ff.id != 0 && ff.injected);
  Link& down = *downlinks_[ff.dst];
  down.disarm_flowfwd_guard();
  const auto n = static_cast<std::uint32_t>(ff.hops.size());
  down.credit_flowfwd(n, ff.bytes, ff.t_inj - ff.t0);

  // Every packet's downlink depth sample and latency, in service order,
  // its serialization end recomputed on the way; with a tracer, also the
  // switch and packet spans the per-packet path would have recorded.
  const Tick after_port = config_.link_propagation + config_.recv_overhead;
  const bool traced = tracer_ != nullptr;
  Tick free = std::numeric_limits<Tick>::min();
  for (const FFHop& h : ff.hops) {
    free = std::max(h.fwd, free) + ff.ser_of(h.seq);
    ports_.depth.add(h.depth);
    latency_ns_.add(static_cast<std::uint64_t>(free + after_port - ff.t0));
    if (traced) {
      trace_flowfwd_switch(ff, ff.upl_end(h.seq) + config_.link_propagation,
                           h.fwd);
      if (tracer_->active(ff.t0))
        tracer_->complete(trace_pid_, ff.dst, ff.t0, free + after_port - ff.t0,
                          "packet");
    }
  }
  counters_.packets_delivered += n;

  const MessageId id = ff.id;
  ACTNET_CHECK(in_flight_.at(slot_of(id)).remaining == n);
  release_flowfwd(plan);
  packet_delivered(id, n);  // may reenter send()
}

void Network::demote_flowfwd(std::uint32_t plan) {
  const Tick td = engine_.now();
  FlowFwd& ff = ffwd_[plan];
  ACTNET_CHECK(ff.id != 0);
  const MessageId id = ff.id;
  const std::uint64_t place = place_of(id);
  const auto n = static_cast<std::uint32_t>(ff.hops.size());
  Link& up = *uplinks_[ff.src];
  Link& down = *downlinks_[ff.dst];
  expand_flowfwd(ff);
  const std::vector<FFPacket>& pkts = ffwd_pkts_;
  const std::vector<std::uint32_t>& order = ffwd_order_;

  // Release this message's guards (the one firing right now is already
  // empty; disarm is a no-op for it), cancel the analytic events, and
  // start the demotion cooldown so persistently contended ports stop
  // accept-and-demoting every message. The uplink guard is only ours
  // before injection — flowfwd_injected released it, and a LATER
  // flow-forward from the same source may have armed its own since.
  if (!ff.injected) {
    up.disarm_flowfwd_guard();
    engine_.cancel(ff.inj_ev);
  }
  down.disarm_flowfwd_guard();
  engine_.cancel(ff.done_ev);
  ffwd_cooldown_up_[static_cast<std::size_t>(ff.src)] =
      td + kFlowFwdCooldown;
  ffwd_cooldown_down_[static_cast<std::size_t>(ff.dst)] =
      td + kFlowFwdCooldown;

  // Which of the plan's per-packet events have run is decided in the
  // engine's order, same-tick ones included (ran_before_current). Every
  // pending event is restored as of the tick the per-packet path created
  // it at (the uplink finish when packet k began serializing, a switch
  // exit at the uplink serialization end, a downlink finish at down_start,
  // the last packet's completion at its down_end) and at the message's
  // place. Queue entries carry no engine event and ride along with their
  // port's in-service restore.

  // ---- uplink: credit the started packets, restore the rest exactly ----
  // k is the packet serializing now. Before injection that is at most the
  // last one: the injection event has not run, so neither has the last
  // packet's serialization end it stands for.
  std::uint32_t k = n;
  if (!ff.injected) {
    k = 0;
    while (k + 1 < n &&
           ran_before_current(ff, pkts[k].upl_end,
                              pkts[k].upl_end - pkts[k].ser))
      ++k;
    // Packets 0..k have started, and k+1.. wait in the flow's queue with
    // the deficit the per-packet path would have earned (DRR's quantum
    // credits replayed over packets 0..k). The last packet carries
    // on_injected as its serialization-end callback, as transmit_train
    // would.
    Bytes bytes = 0;
    Bytes deficit = 0;
    Tick busy = 0;
    for (std::uint32_t i = 0; i <= k; ++i) {
      bytes += pkts[i].size;
      busy += pkts[i].ser;
      while (deficit < pkts[i].size) deficit += config_.drr_quantum;
      deficit -= pkts[i].size;
    }
    up.credit_flowfwd(k + 1, bytes, busy);
    const auto onser_for = [&](std::uint32_t i) {
      sim::EventFn fn;
      if (i + 1 == n) fn = std::move(ff.on_injected);
      return fn;
    };
    const auto arrival = [&](std::uint32_t i) {
      return parked_arrival(flowfwd_packet(ff, i),
                            pkts[i].fwd - pkts[i].arrive);
    };
    up.restore_in_service(pkts[k].size, pkts[k].upl_end - pkts[k].ser,
                          place + kUplinkEnd, pkts[k].upl_end, onser_for(k),
                          arrival(k));
    for (std::uint32_t i = k + 1; i < n; ++i)
      up.restore_queued(ff.flow, pkts[i].size, onser_for(i), arrival(i));
    if (k + 1 < n) up.restore_flow_front(ff.flow, deficit, /*visited=*/true);
  }

  // ---- switch: serialized but not yet at the downlink ----
  for (std::uint32_t i = 0; i < k; ++i) {
    const FFPacket& pk = pkts[i];
    // Routed at its uplink serialization end, which created the switch
    // exit event and fixed the span.
    if (ran_before_current(ff, pk.fwd, pk.upl_end)) continue;  // at the port
    trace_flowfwd_switch(ff, pk.arrive, pk.fwd);
    engine_.schedule_as_of(pk.upl_end, place + kSwitchExit, pk.fwd,
                           [this, p = flowfwd_packet(ff, i)] {
                             deliver_to_node(p);
                           });
  }

  // ---- downlink: left the port / serializing / waiting ----
  const DownlinkState drr = replay_downlink(ff);
  std::uint32_t accounted = 0;
  std::uint64_t dpkts = 0;
  Bytes dbytes = 0;
  Tick dbusy = 0;
  for (std::uint32_t m = 0; m < drr.arrived; ++m) {
    const std::uint32_t idx = order[m];
    const FFPacket& pk = pkts[idx];
    ports_.depth.add(pk.depth);
    trace_flowfwd_switch(ff, pk.arrive, pk.fwd);
    if (m > drr.served) continue;  // waiting: restored below
    ++dpkts;
    dbytes += pk.size;
    dbusy += pk.ser;
    if (m == drr.served) continue;  // in service: restored below
    if (m + 1 < n) {
      // Accounted at its downlink serialization end.
      account_packet(ff.dst, ff.t0, pk.complete);
      ++accounted;
    } else {
      // The message's last packet, between the port and the node: its
      // completion event was created at down_end.
      engine_.schedule_as_of(pk.down_end, place + kCompletion, pk.complete,
                             [this, p = flowfwd_packet(ff, idx)] {
                               complete_packet(p);
                             });
    }
  }
  if (drr.served < drr.arrived) {
    const auto arrival = [this](const Packet& p) -> sim::EventFn {
      return [this, p] { downlink_done(p); };
    };
    const std::uint32_t idx = order[drr.served];
    const FFPacket& pk = pkts[idx];
    down.restore_in_service(pk.size, pk.down_start, place + kDownlinkEnd,
                            pk.down_end, {}, arrival(flowfwd_packet(ff, idx)));
    for (std::uint32_t m = drr.served + 1; m < drr.arrived; ++m)
      down.restore_queued(ff.flow, pkts[order[m]].size, {},
                          arrival(flowfwd_packet(ff, order[m])));
    if (drr.served + 1 < drr.arrived)
      down.restore_flow_front(ff.flow, drr.deficit, drr.visited);
  }
  if (dpkts > 0) down.credit_flowfwd(dpkts, dbytes, dbusy);

  ++counters_.flowfwd_demotions;
  counters_.flowfwd_fallback_packets += n - accounted;

  // No callback fires here: the last packet's completion and on_injected
  // are restored events, so the competing enqueue finds every link in its
  // exact packet-level state. The accounted packets are never the last.
  release_flowfwd(plan);
  if (accounted > 0) packet_delivered(id, accounted);
}

void Network::complete_packet(const Packet& p) {
  account_packet(p.dst, p.injected_at, engine_.now());
  packet_delivered(p.msg_id);
}

MessageId Network::open_message(FlowId flow, std::uint32_t packets,
                                Callback&& on_delivered) {
  if (flow >= flow_sends_.size()) flow_sends_.resize(flow + std::size_t{1});
  const std::uint32_t slot = in_flight_.put(
      InFlight{0, packets, engine_.take_places(kPlaces),
               std::move(on_delivered)});
  const MessageId id =
      (static_cast<MessageId>(++flow_sends_[flow]) << 32) | slot;
  in_flight_.at(slot).id = id;
  return id;
}

void Network::packet_delivered(MessageId id, std::uint32_t packets) {
  InFlight& f = in_flight_.at(slot_of(id));
  ACTNET_CHECK(f.id == id && f.remaining >= packets);
  f.remaining -= packets;
  if (f.remaining > 0) return;
  Callback cb = in_flight_.take(slot_of(id)).on_delivered;
  ++counters_.messages_delivered;
  if (cb) cb();  // may reenter send()
}

}  // namespace actnet::net
