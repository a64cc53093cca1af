#include "net/network.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/error.h"

namespace actnet::net {
namespace {

std::unique_ptr<Switch> make_switch(sim::Engine& engine,
                                    const NetworkConfig& config, Rng rng) {
  switch (config.switch_kind) {
    case SwitchKind::kOutputQueued:
      return std::make_unique<OutputQueuedSwitch>(engine, config.output_queued,
                                                  rng);
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
  nodes_per_pod_ = config_.nodes / config_.pods;

  for (int p = 0; p < config_.pods; ++p)
    leaves_.push_back(make_switch(engine_, config_, rng.split()));
  uplinks_.reserve(config_.nodes);
  downlinks_.reserve(config_.nodes);
  local_channels_.reserve(config_.nodes);
  for (int n = 0; n < config_.nodes; ++n) {
    uplinks_.push_back(std::make_unique<Link>(
        engine_, config_.link_bandwidth, config_.link_propagation,
        config_.drr_quantum));
    downlinks_.push_back(std::make_unique<Link>(
        engine_, config_.link_bandwidth, config_.link_propagation,
        config_.drr_quantum));
    local_channels_.push_back(std::make_unique<Link>(
        engine_, config_.local_bandwidth, config_.local_latency,
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
            engine_, trunk_bw, config_.trunk_prop(),
            config_.drr_quantum));
        spine_to_leaf_[p].push_back(std::make_unique<Link>(
            engine_, trunk_bw, config_.trunk_prop(),
            config_.drr_quantum));
      }
    }
  }

  // Flow-forward regime: on by default, ACTNET_FLOWFWD=off opts out
  // (DESIGN.md §5.12). Requires a contention-free switch stage — the
  // shared-queue ablation model couples packets and stays packet-level.
  flowfwd_ = util::env_onoff_or("ACTNET_FLOWFWD", true);
  switch_contention_free_ = leaves_[0]->contention_free();
  ffwd_cooldown_up_.assign(static_cast<std::size_t>(config_.nodes), 0);
  ffwd_cooldown_down_.assign(static_cast<std::size_t>(config_.nodes), 0);

  if (obs::enabled()) attach_metrics(obs::default_registry());
}

void Network::attach_metrics(obs::Registry& r) {
  m_messages_ = &r.counter("net.messages_sent");
  m_packets_ = &r.counter("net.packets_delivered");
  m_bytes_ = &r.counter("net.bytes_sent");
  m_ff_messages_ = &r.counter("net.flowfwd.messages");
  m_ff_demotions_ = &r.counter("net.flowfwd.demotions");
  m_ff_fallback_ = &r.counter("net.flowfwd.fallback_packets");
  m_latency_ns_ = &r.histogram("net.packet_latency_ns");
  // Lossless fabric: registered so dashboards can rely on the names, but
  // nothing in the model drops or retransmits.
  r.counter("net.packet_drops");
  r.counter("net.packet_retries");
  obs::Counter* drr = &r.counter("net.link.drr_rounds");
  obs::Histogram* depth = &r.histogram("net.port.queue_depth");
  obs::Gauge* peak = &r.gauge("net.port.queue_depth_peak");
  for (auto& l : uplinks_) l->attach_metrics(drr, depth, peak);
  for (auto& l : downlinks_) l->attach_metrics(drr, depth, peak);
  for (auto& l : local_channels_) l->attach_metrics(drr, depth, peak);
  for (auto& pod : leaf_to_spine_)
    for (auto& l : pod) l->attach_metrics(drr, depth, peak);
  for (auto& pod : spine_to_leaf_)
    for (auto& l : pod) l->attach_metrics(drr, depth, peak);
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
  if (m_messages_ != nullptr) {
    m_messages_->inc();
    m_bytes_->inc(static_cast<std::uint64_t>(size));
  }

  if (src == dst) {
    // Shared-memory path: one serialized transfer through the node-local
    // channel; "injection" completes when serialization does.
    const MessageId id = open_message(1, std::move(on_delivered));
    local_channels_[src]->transmit(flow, size, std::move(on_injected),
                                   [this, id] { packet_delivered(id); });
    return id;
  }

  const auto full_packets = static_cast<std::uint32_t>(size / config_.mtu);
  const Bytes tail = size % config_.mtu;
  const std::uint32_t num_packets = full_packets + (tail > 0 ? 1 : 0);
  const MessageId id = open_message(num_packets, std::move(on_delivered));

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
        deliver_packet(p);
      });
  return id;
}

void Network::deliver_packet(const Packet& p) {
  // Arrived at the source pod's leaf switch input port.
  if (tracer_ != nullptr && tracer_->active(engine_.now())) {
    // Tracing swaps in a callback that also records the switch-stage span;
    // the routing itself is identical, so the event sequence is unchanged.
    // [this, t0] is 16 bytes — inside ForwardFn's inline capacity.
    const Tick t0 = engine_.now();
    leaves_[pod_of(p.src)]->route(p, [this, t0](const Packet& routed) {
      if (tracer_->active(t0))
        tracer_->complete(trace_pid_, routed.src, t0, engine_.now() - t0,
                          "switch");
      route_from_leaf(routed);
    });
    return;
  }
  leaves_[pod_of(p.src)]->route(
      p, [this](const Packet& routed) { route_from_leaf(routed); });
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
  // destination leaf, which routes onto the node's port.
  const int spine = static_cast<int>(p.flow % spines_.size());
  leaf_to_spine_[src_pod][spine]->transmit(
      p.flow, p.size, nullptr, [this, p, spine, dst_pod] {
        spines_[spine]->route(p, [this, spine, dst_pod](const Packet& at_spine) {
          spine_to_leaf_[dst_pod][spine]->transmit(
              at_spine.flow, at_spine.size, nullptr, [this, at_spine] {
                leaves_[pod_of(at_spine.dst)]->route(
                    at_spine, [this](const Packet& routed) {
                      deliver_to_node(routed);
                    });
              });
        });
      });
}

void Network::deliver_to_node(const Packet& p) {
  downlinks_[p.dst]->transmit(p.flow, p.size, nullptr, [this, p] {
    engine_.schedule_in(config_.recv_overhead,
                        [this, p] { complete_packet(p); });
  });
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
// of ~6 per packet. Both route endpoints hold a demotion guard: the first
// competing enqueue re-materializes the message's remaining packets into
// the exact packet-level state the per-packet path would have reached, so
// contended dynamics stay exact from that instant on.
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
  p.size = ff.pkts[i].size;
  p.injected_at = ff.t0;
  return p;
}

sim::EventFn Network::parked_arrival(const Packet& p, Tick stage_delay) {
  // Fired by the uplink when the (re-materialized) packet's last bit
  // arrives at the switch input: cross the switch with the delay that was
  // pre-drawn at accept time — no second RNG draw, no double counting.
  const std::uint32_t slot = ffwd_parked_.put(FFParked{p, stage_delay});
  return [this, slot] {
    const FFParked r = ffwd_parked_.take(slot);
    const Packet pkt = r.p;
    if (tracer_ != nullptr && tracer_->active(engine_.now()))
      tracer_->complete(trace_pid_, pkt.src, engine_.now(), r.delay, "switch");
    engine_.schedule_in(r.delay, [this, pkt] { deliver_to_node(pkt); });
  };
}

void Network::account_delivery(const FlowFwd& ff, const FFPacket& pk) {
  ++counters_.packets_delivered;
  counters_.packet_latency_us.add(units::to_us(pk.complete - ff.t0));
  if (m_packets_ != nullptr) {
    m_packets_->inc();
    m_latency_ns_->add(static_cast<std::uint64_t>(pk.complete - ff.t0));
  }
  // The same lifecycle span complete_packet() records on the slow path.
  if (tracer_ != nullptr && tracer_->active(ff.t0))
    tracer_->complete(trace_pid_, ff.dst, ff.t0, pk.complete - ff.t0,
                      "packet");
}

void Network::trace_flowfwd_switch(const FlowFwd& ff, const FFPacket& pk) {
  // The switch-stage span deliver_packet() records on the slow path; the
  // closed-form schedule already fixed [arrive, fwd), so the span is
  // emitted when the packet's fate is known rather than event-by-event.
  if (tracer_ != nullptr && tracer_->active(pk.arrive))
    tracer_->complete(trace_pid_, ff.src, pk.arrive, pk.fwd - pk.arrive,
                      "switch");
}

Network::DownlinkState Network::replay_downlink(FlowFwd& ff, Tick bound) {
  // Replays the slow path's downlink decisions from the closed-form
  // schedule: which arrivals found the port free (depth sample 1), which
  // queued (depth = queue occupancy), and the flow's DRR visit state
  // (deficit/visited) when the replay stops at `bound`. Single flow, so
  // every ring rotation immediately re-credits the same flow.
  const Bytes quantum = config_.drr_quantum;
  DownlinkState st;
  bool in_ring = false;
  // The FIFO of waiting positions in ff.order. Arrivals are visited in
  // order and every arrival queues while the port is busy, so the waiting
  // set is always the contiguous run [q_front, q_front + q_len).
  int q_front = 0;
  int q_len = 0;
  int cur = -1;  // position in service, -1 = free
  const auto pkt_at = [&](int m) -> FFPacket& {
    return ff.pkts[ff.order[static_cast<std::size_t>(m)]];
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
  const auto count = static_cast<int>(ff.order.size());
  for (int m = 0; m < count; ++m) {
    FFPacket& pk = pkt_at(m);
    if (pk.fwd > bound) break;
    // Service completions strictly before this arrival — and at the same
    // tick when the finish event was scheduled no later than the arrival's
    // forward event (engine sequence order).
    while (cur >= 0 && (pkt_at(cur).down_end < pk.fwd ||
                        (pkt_at(cur).down_end == pk.fwd &&
                         pkt_at(cur).down_start <= pk.arrive)))
      complete_cur();
    if (cur < 0) {
      pk.depth = 1;  // free port: the direct-serve depth sample
      cur = m;
    } else {
      if (q_len == 0) q_front = m;
      ++q_len;
      if (!in_ring) {
        in_ring = true;
        st.deficit = 0;
        st.visited = false;
      }
      pk.depth = static_cast<std::uint32_t>(q_len);
    }
  }
  while (cur >= 0 && pkt_at(cur).down_end <= bound) complete_cur();
  return st;
}

void Network::flow_forward(MessageId id, NodeId src, NodeId dst, FlowId flow,
                           std::uint32_t num_packets, Bytes full_size,
                           Bytes tail, Callback&& on_injected) {
  const Tick t0 = engine_.now();
  const Tick prop = config_.link_propagation;
  const double bw = config_.link_bandwidth;
  Switch& leaf = *leaves_[pod_of(src)];
  const std::uint32_t full_count = num_packets - (tail > 0 ? 1 : 0);

  const std::uint32_t plan = acquire_flowfwd();
  FlowFwd& ff = ffwd_[plan];
  ff.id = id;
  ff.src = src;
  ff.dst = dst;
  ff.flow = flow;
  ff.t0 = t0;
  ff.pkts.resize(num_packets);
  ff.on_injected = std::move(on_injected);

  // Uplink: packets serialize back-to-back from t0. The switch stage is
  // contention-free, so each packet's delay is drawn now, in arrival
  // order — for serial traffic this is the exact draw order the
  // per-packet path would have used (bit-identical results); concurrent
  // messages interleave draws differently and land in tolerance territory.
  Packet proto = flowfwd_packet(ff, 0);
  Tick t = t0;
  for (std::uint32_t i = 0; i < num_packets; ++i) {
    FFPacket& pk = ff.pkts[i];
    pk.size = (i < full_count) ? full_size : tail;
    t += std::max<Tick>(1, units::serialization(pk.size, bw));
    pk.upl_end = t;
    pk.arrive = t + prop;
    proto.seq = i;
    proto.size = pk.size;
    pk.fwd = pk.arrive + leaf.flowfwd_delay(proto);
  }
  ff.t_inj = t;

  // Downlink service order: arrivals sorted by switch-output time; a stable
  // sort keeps equal ticks in sequence order, exactly as the engine would.
  // Insertion sort, because arrivals are already nearly in order and,
  // unlike std::stable_sort, it needs no temporary buffer per message.
  ff.order.resize(num_packets);
  for (std::uint32_t i = 0; i < num_packets; ++i) {
    std::uint32_t j = i;
    for (; j > 0 && ff.pkts[i].fwd < ff.pkts[ff.order[j - 1]].fwd; --j)
      ff.order[j] = ff.order[j - 1];
    ff.order[j] = i;
  }
  Tick free = std::numeric_limits<Tick>::min();
  for (const std::uint32_t idx : ff.order) {
    FFPacket& pk = ff.pkts[idx];
    pk.down_start = std::max(pk.fwd, free);
    pk.down_end =
        pk.down_start + std::max<Tick>(1, units::serialization(pk.size, bw));
    free = pk.down_end;
    pk.complete = pk.down_end + prop + config_.recv_overhead;
  }
  ff.t_done = ff.pkts[ff.order.back()].complete;
  replay_downlink(ff, std::numeric_limits<Tick>::max());  // depth samples

  // Accept-time accounting the per-packet path would have produced at t0:
  // the uplink's enqueue-depth samples (1..n, as transmit_train records).
  // Uplink packet/byte/busy counters are credited at t_inj, downlink
  // counters and depth samples at t_done, so a demotion can credit exactly
  // the started portion instead.
  for (std::uint32_t i = 1; i <= num_packets; ++i)
    uplinks_[src]->credit_flowfwd_depth(i);

  ff.inj_ev = engine_.schedule_cancellable_at(
      ff.t_inj, [this, plan] { flowfwd_injected(plan); });
  ff.done_ev = engine_.schedule_cancellable_at(
      ff.t_done, [this, plan] { finish_flowfwd(plan); });
  uplinks_[src]->arm_flowfwd_guard([this, plan] { demote_flowfwd(plan); });
  downlinks_[dst]->arm_flowfwd_guard([this, plan] { demote_flowfwd(plan); });

  ++counters_.flowfwd_messages;
  if (m_ff_messages_ != nullptr) m_ff_messages_->inc();
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
  ff.pkts.clear();
  ff.order.clear();
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
  Bytes bytes = 0;
  for (const FFPacket& pk : ff.pkts) bytes += pk.size;
  // The message has fully left the uplink: credit the port (busy time is
  // exactly the back-to-back serialization span) and release its guard so
  // later traffic from this node no longer demotes the message.
  uplinks_[ff.src]->credit_flowfwd(ff.pkts.size(), bytes, ff.t_inj - ff.t0);
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

  Bytes bytes = 0;
  Tick busy = 0;
  for (const FFPacket& pk : ff.pkts) {
    bytes += pk.size;
    busy += pk.down_end - pk.down_start;
  }
  down.credit_flowfwd(ff.pkts.size(), bytes, busy);
  for (const std::uint32_t idx : ff.order) {
    down.credit_flowfwd_depth(ff.pkts[idx].depth);
    trace_flowfwd_switch(ff, ff.pkts[idx]);
    account_delivery(ff, ff.pkts[idx]);
  }

  const MessageId id = ff.id;
  const auto n = static_cast<std::uint32_t>(ff.pkts.size());
  ACTNET_CHECK(in_flight_.at(slot_of(id)).remaining == n);
  release_flowfwd(plan);
  packet_delivered(id, n);  // may reenter send()
}

void Network::demote_flowfwd(std::uint32_t plan) {
  const Tick td = engine_.now();
  FlowFwd& ff = ffwd_[plan];
  ACTNET_CHECK(ff.id != 0);
  const MessageId id = ff.id;
  const auto n = static_cast<std::uint32_t>(ff.pkts.size());
  const double bw = config_.link_bandwidth;
  Link& up = *uplinks_[ff.src];
  Link& down = *downlinks_[ff.dst];
  const auto ser_of = [&](const FFPacket& pk) {
    return std::max<Tick>(1, units::serialization(pk.size, bw));
  };

  // Release this message's guards (the one firing right now is already
  // empty; disarm is a no-op for it), cancel the analytic events, and
  // start the demotion cooldown so persistently contended ports stop
  // accept-and-demoting every message. The uplink guard is only ours
  // before injection — flowfwd_injected released it, and a LATER
  // flow-forward from the same source may have armed its own since.
  if (!ff.injected) up.disarm_flowfwd_guard();
  down.disarm_flowfwd_guard();
  engine_.cancel(ff.done_ev);
  ffwd_cooldown_up_[static_cast<std::size_t>(ff.src)] =
      td + config_.flowfwd_cooldown;
  ffwd_cooldown_down_[static_cast<std::size_t>(ff.dst)] =
      td + config_.flowfwd_cooldown;

  Callback on_injected;
  bool inject_now = false;
  if (!ff.injected) {
    engine_.cancel(ff.inj_ev);
    on_injected = std::move(ff.on_injected);
    inject_now = ff.t_inj <= td;  // same-tick race: event not yet fired
  }

  // ---- uplink: credit the started packets, restore the rest exactly ----
  std::uint32_t k = 0;  // first packet whose serialization end is ahead
  while (k < n && ff.pkts[k].upl_end <= td) ++k;
  if (!ff.injected) {
    const std::uint32_t started = std::min(k + 1, n);
    Bytes bytes = 0;
    Tick busy = 0;
    for (std::uint32_t i = 0; i < started; ++i) {
      bytes += ff.pkts[i].size;
      busy += ser_of(ff.pkts[i]);
    }
    up.credit_flowfwd(started, bytes, busy);
  }
  // Restored engine events must reproduce the slow path's same-tick
  // ordering, and the engine breaks time ties by sequence number —
  // creation order. Every pending event's slow-path creation tick is known
  // from the plan (the uplink finish was scheduled when packet k's service
  // began, a downlink finish at down_start, a switch exit at arrive, the
  // propagation hop at down_end, the receive hop at down_end + prop), so
  // the restores are sorted by that tick and applied in order. Queue
  // entries carry no engine event and ride along with their port's
  // in-service restore.
  const Tick prop = config_.link_propagation;
  struct Restore {
    Tick created;
    std::function<void()> apply;
  };
  std::vector<Restore> restores;

  // ---- switch / propagation: serialized but not yet at the downlink ----
  for (std::uint32_t i = 0; i < k; ++i) {
    const FFPacket& pk = ff.pkts[i];
    if (pk.fwd <= td) continue;  // already at the downlink
    if (pk.arrive > td) {
      // Still propagating toward the switch: restore the propagation-hop
      // event; it re-creates the switch-exit event at `arrive`, exactly as
      // the uplink's arrival callback would have.
      restores.push_back({pk.upl_end, [this, &ff, i] {
        engine_.schedule_at(ff.pkts[i].arrive,
                            parked_arrival(flowfwd_packet(ff, i),
                                           ff.pkts[i].fwd - ff.pkts[i].arrive));
      }});
    } else {
      // Inside the switch stage: the exit event was created on arrival.
      trace_flowfwd_switch(ff, pk);
      restores.push_back({pk.arrive, [this, &ff, i] {
        const std::uint32_t slot =
            ffwd_parked_.put(FFParked{flowfwd_packet(ff, i), 0});
        engine_.schedule_at(ff.pkts[i].fwd, [this, slot] {
          const FFParked r = ffwd_parked_.take(slot);
          deliver_to_node(r.p);
        });
      }});
    }
  }

  if (k < n) {
    // Packet k is mid-serialization; k+1.. wait in the flow's queue with
    // the deficit the per-packet path would have earned (DRR's quantum
    // credits replayed over packets 0..k). The last packet carries
    // on_injected as its serialization-end callback, as transmit_train
    // would. The finish event was created when packet k's service began.
    restores.push_back({ff.pkts[k].upl_end - ser_of(ff.pkts[k]), [&, this] {
      const auto onser_for = [&](std::uint32_t i) {
        sim::EventFn fn;
        if (i + 1 == n && on_injected) fn = std::move(on_injected);
        return fn;
      };
      const auto stage_delay = [&](std::uint32_t i) {
        return ff.pkts[i].fwd - ff.pkts[i].arrive;
      };
      up.restore_in_service(ff.pkts[k].size, ff.pkts[k].upl_end, onser_for(k),
                            parked_arrival(flowfwd_packet(ff, k),
                                           stage_delay(k)));
      for (std::uint32_t i = k + 1; i < n; ++i)
        up.restore_queued(ff.flow, ff.pkts[i].size, onser_for(i),
                          parked_arrival(flowfwd_packet(ff, i),
                                         stage_delay(i)));
      if (k + 1 < n) {
        Bytes deficit = 0;
        for (std::uint32_t i = 0; i <= k; ++i) {
          while (deficit < ff.pkts[i].size) deficit += config_.drr_quantum;
          deficit -= ff.pkts[i].size;
        }
        up.restore_flow_front(ff.flow, deficit, /*visited=*/true);
      }
    }});
  }

  // ---- downlink: delivered / receiving / serializing / waiting ----
  const DownlinkState drr = replay_downlink(ff, td);
  std::uint32_t completed = 0;
  std::uint64_t dpkts = 0;
  Bytes dbytes = 0;
  Tick dbusy = 0;
  int in_service = -1;                 // ff.order index serializing at td
  std::vector<std::uint32_t> waiting;  // ff.order indices queued at td
  for (const std::uint32_t idx : ff.order) {
    FFPacket& pk = ff.pkts[idx];
    if (pk.fwd > td) break;  // handled by the switch-phase loop above
    down.credit_flowfwd_depth(pk.depth);
    trace_flowfwd_switch(ff, pk);
    if (pk.complete <= td) {
      account_delivery(ff, pk);
      ++completed;
      ++dpkts;
      dbytes += pk.size;
      dbusy += ser_of(pk);
    } else if (pk.down_end <= td) {
      ++dpkts;
      dbytes += pk.size;
      dbusy += ser_of(pk);
      if (td < pk.down_end + prop) {
        // In flight toward the node: the propagation hop (created when the
        // downlink finished) re-creates the receive-overhead event on
        // arrival, exactly as Link::finish_service would have.
        restores.push_back({pk.down_end, [this, &ff, idx] {
          const std::uint32_t slot =
              ffwd_parked_.put(FFParked{flowfwd_packet(ff, idx), 0});
          engine_.schedule_at(
              ff.pkts[idx].down_end + config_.link_propagation,
              [this, slot] {
                const FFParked r = ffwd_parked_.take(slot);
                const Packet p = r.p;
                engine_.schedule_in(config_.recv_overhead,
                                    [this, p] { complete_packet(p); });
              });
        }});
      } else {
        // At the node, inside the receive overhead.
        restores.push_back({pk.down_end + prop, [this, &ff, idx] {
          const std::uint32_t slot =
              ffwd_parked_.put(FFParked{flowfwd_packet(ff, idx), 0});
          engine_.schedule_at(ff.pkts[idx].complete, [this, slot] {
            const FFParked r = ffwd_parked_.take(slot);
            complete_packet(r.p);
          });
        }});
      }
    } else if (pk.down_start <= td) {
      in_service = static_cast<int>(idx);
      ++dpkts;
      dbytes += pk.size;
      dbusy += ser_of(pk);
    } else {
      waiting.push_back(idx);
    }
  }
  ACTNET_CHECK(waiting.empty() || in_service >= 0);
  if (in_service >= 0) {
    restores.push_back(
        {ff.pkts[static_cast<std::uint32_t>(in_service)].down_start,
         [&, this] {
           const auto arrival = [this](const Packet& p) -> sim::EventFn {
             return [this, p] {
               engine_.schedule_in(config_.recv_overhead,
                                   [this, p] { complete_packet(p); });
             };
           };
           const auto su = static_cast<std::uint32_t>(in_service);
           down.restore_in_service(ff.pkts[su].size, ff.pkts[su].down_end, {},
                                   arrival(flowfwd_packet(ff, su)));
           for (const std::uint32_t w : waiting)
             down.restore_queued(ff.flow, ff.pkts[w].size, {},
                                 arrival(flowfwd_packet(ff, w)));
           if (!waiting.empty())
             down.restore_flow_front(ff.flow, drr.deficit, drr.visited);
         }});
  }
  if (dpkts > 0) down.credit_flowfwd(dpkts, dbytes, dbusy);

  std::stable_sort(
      restores.begin(), restores.end(),
      [](const Restore& a, const Restore& b) { return a.created < b.created; });
  for (Restore& r : restores) r.apply();

  ++counters_.flowfwd_demotions;
  counters_.flowfwd_fallback_packets += n - completed;
  if (m_ff_demotions_ != nullptr) {
    m_ff_demotions_->inc();
    m_ff_fallback_->inc(n - completed);
  }

  // Callbacks fire only now that every link holds its exact packet-level
  // state: either may reenter send(), and eligibility must see the
  // restored (busy) route, not a half-demoted one.
  release_flowfwd(plan);
  if (inject_now && on_injected) on_injected();
  if (completed > 0) packet_delivered(id, completed);
}

void Network::complete_packet(const Packet& p) {
  ++counters_.packets_delivered;
  counters_.packet_latency_us.add(units::to_us(engine_.now() - p.injected_at));
  if (m_packets_ != nullptr) {
    m_packets_->inc();
    m_latency_ns_->add(
        static_cast<std::uint64_t>(engine_.now() - p.injected_at));
  }
  if (tracer_ != nullptr && tracer_->active(p.injected_at)) {
    // Full lifecycle span: inject -> route -> serialize -> deliver, one
    // lane per destination node.
    tracer_->complete(trace_pid_, p.dst, p.injected_at,
                      engine_.now() - p.injected_at, "packet");
  }
  packet_delivered(p.msg_id);
}

MessageId Network::open_message(std::uint32_t packets,
                                Callback&& on_delivered) {
  const std::uint32_t slot =
      in_flight_.put(InFlight{0, packets, std::move(on_delivered)});
  const MessageId id = (next_msg_id_++ << 32) | slot;
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
