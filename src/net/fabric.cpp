#include "net/fabric.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace actnet::net {

Fabric::Fabric(const NetworkConfig& config, std::uint64_t seed,
               int /*workers*/)
    : config_(config),
      seed_key_(mix64(seed)),
      pods_(config.pods),
      nodes_per_pod_(config.nodes / std::max(config.pods, 1)),
      spine_domain_(config.pods > 1 ? config.pods : -1),
      pe_(config.pods > 1 ? config.pods + 1 : 1, config.trunk_prop()) {
  ACTNET_CHECK(config_.nodes >= 1);
  ACTNET_CHECK(config_.mtu > 0);
  ACTNET_CHECK(config_.pods >= 1);
  ACTNET_CHECK_MSG(config_.nodes % config_.pods == 0,
                   "nodes must split evenly across pods");
  ACTNET_CHECK_MSG(config_.switch_kind == SwitchKind::kOutputQueued,
                   "Fabric requires the output-queued switch model: the "
                   "shared-queue M/G/1 stage couples every packet through one "
                   "server and cannot be decomposed into domains");

  dom_.resize(static_cast<std::size_t>(domains()));
  if (pods_ > 1) {
    ACTNET_CHECK(config_.spines >= 1);
    dom_.back().spine.resize(static_cast<std::size_t>(config_.spines));
  }

  uplinks_.reserve(static_cast<std::size_t>(config_.nodes));
  downlinks_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    const int d = domain_of(n);
    sim::Engine& e = pe_.domain(d);
    uplinks_.push_back(std::make_unique<Link>(e, dom(d).ports,
                                              config_.link_bandwidth,
                                              config_.link_propagation,
                                              config_.drr_quantum));
    downlinks_.push_back(std::make_unique<Link>(e, dom(d).ports,
                                                config_.link_bandwidth,
                                                config_.link_propagation,
                                                config_.drr_quantum));
  }
  if (pods_ > 1) {
    double trunk = config_.trunk_factor;
    if (trunk <= 0.0)
      trunk = static_cast<double>(nodes_per_pod_) / config_.spines;
    const double trunk_bw = config_.link_bandwidth * trunk;
    leaf_to_spine_.resize(static_cast<std::size_t>(pods_));
    spine_to_leaf_.resize(static_cast<std::size_t>(pods_));
    for (int p = 0; p < pods_; ++p) {
      for (int s = 0; s < config_.spines; ++s) {
        // Propagation 0 on both trunk halves: the cable flight time rides
        // on the cross-domain channel timestamp instead (trunk_up_arrive /
        // spine_forward post at serialization end + trunk_prop), so each
        // half binds cleanly to the domain that owns its sending port.
        leaf_to_spine_[static_cast<std::size_t>(p)].push_back(
            std::make_unique<Link>(pe_.domain(p), dom(p).ports, trunk_bw,
                                   /*propagation=*/0, config_.drr_quantum));
        spine_to_leaf_[static_cast<std::size_t>(p)].push_back(
            std::make_unique<Link>(pe_.domain(spine_domain_),
                                   dom(spine_domain_).ports, trunk_bw,
                                   /*propagation=*/0, config_.drr_quantum));
      }
    }
  }
}

Fabric::~Fabric() {
  obs::Registry& r = obs::default_registry();
  static obs::Counter& drr_rounds = r.counter("fabric.drr_rounds");
  static obs::Histogram& depth = r.histogram("fabric.port.depth");
  static obs::Gauge& depth_peak = r.gauge("fabric.port.depth_peak");
  const PortStats t = port_totals();
  drr_rounds.inc(t.drr_rounds);
  depth.merge(t.depth);
  depth_peak.max(static_cast<double>(t.depth.max()));
}

PortStats Fabric::port_totals() const {
  PortStats t;
  for (const DomainState& d : dom_) {
    t.drr_rounds += d.ports.drr_rounds;
    t.depth.merge(d.ports.depth);
  }
  return t;
}

FlowId Fabric::allocate_flows(int count) {
  ACTNET_CHECK(count > 0);
  const FlowId base = next_flow_;
  next_flow_ += static_cast<FlowId>(count);
  return base;
}

void Fabric::send(NodeId src, NodeId dst, FlowId flow, Bytes size,
                  Callback on_delivered) {
  ACTNET_CHECK(src >= 0 && src < config_.nodes);
  ACTNET_CHECK(dst >= 0 && dst < config_.nodes);
  ACTNET_CHECK_MSG(src != dst,
                   "Fabric models inter-node traffic only (src == " << src
                                                                    << ")");
  ACTNET_CHECK(size > 0);
  const int sd = domain_of(src);
  const int dd = domain_of(dst);
  DomainState& S = dom(sd);
  // Domain-local ids stay unique fabric-wide without any cross-domain
  // coordination: the owning domain sits in the high bits.
  const MessageId id = (static_cast<MessageId>(sd) << 40) | S.next_msg++;
  ++S.counters.messages_sent;
  S.counters.bytes_sent += size;

  const auto full_packets = static_cast<std::uint32_t>(size / config_.mtu);
  const Bytes tail = size % config_.mtu;
  const std::uint32_t count = full_packets + (tail > 0 ? 1 : 0);
  const Tick t0 = pe_.domain(sd).now();

  if (dd == sd) {
    S.in_flight.emplace(id, InFlight{count, std::move(on_delivered)});
  } else {
    // The destination domain must know the message before its first packet
    // can possibly arrive. Register via an announcement posted one
    // lookahead ahead — the earliest legal cross-domain timestamp, and
    // strictly earlier than any delivery (the first packet still has to
    // serialize, cross two switch stages and a trunk). The capture spills
    // the 48-byte callback to the heap: once per message, never per packet.
    pe_.post(sd, dd, t0 + pe_.lookahead(),
             [this, dd, id, count, cb = std::move(on_delivered)]() mutable {
               dom(dd).in_flight.emplace(id, InFlight{count, std::move(cb)});
             });
  }

  const std::uint32_t slot =
      S.msgs.put(MsgRec{id, src, dst, flow, count, 0, config_.mtu, tail, t0});
  uplinks_[static_cast<std::size_t>(src)]->transmit_train(
      flow, count, config_.mtu, tail, {},
      [this, sd, slot](std::uint32_t i) { uplink_arrival(sd, slot, i); });
}

Tick Fabric::stage_delay(std::uint32_t sw, const Packet& p,
                         SwitchCounters& c) {
  return keyed_stage_delay(config_.output_queued, mix64(seed_key_ ^ sw),
                           p.msg_id, p, c);
}

void Fabric::uplink_arrival(int src_domain, std::uint32_t slot,
                            std::uint32_t i) {
  // Packet i's last bit reached the leaf input port (runs in src's domain).
  DomainState& S = dom(src_domain);
  MsgRec& r = S.msgs.at(slot);
  Packet p;
  p.msg_id = r.id;
  p.seq = i;
  p.src = r.src;
  p.dst = r.dst;
  p.flow = r.flow;
  p.size = packet_size(r, i);
  p.injected_at = r.t0;
  if (++r.arrived == r.count) S.msgs.take(slot);  // per-flow FIFO: i is last
  const Tick d = stage_delay(static_cast<std::uint32_t>(src_domain), p,
                             S.leaf);
  pe_.domain(src_domain).schedule_in(d, [this, p] { leaf_forward_src(p); });
}

void Fabric::leaf_forward_src(const Packet& p) {
  const int sp = pod_of(p.src);
  if (sp == pod_of(p.dst)) {
    // Intra-pod: the single leaf stage already ran; straight to the port.
    leaf_forward_dst(p);
    return;
  }
  const int s = spine_for(p.flow);
  leaf_to_spine_[static_cast<std::size_t>(sp)][static_cast<std::size_t>(s)]
      ->transmit(p.flow, p.size, {}, [this, p] { trunk_up_arrive(p); });
}

void Fabric::trunk_up_arrive(const Packet& p) {
  // Trunk serialization done (link propagation is 0); the cable flight is
  // the channel timestamp — exactly the lookahead, so the invariant holds
  // with no slack for any event time within the window.
  const int sd = pod_of(p.src);
  const Tick t = pe_.domain(sd).now() + config_.trunk_prop();
  pe_.post(sd, spine_domain_, t, [this, p] { packet_at_spine(p); });
}

void Fabric::packet_at_spine(const Packet& p) {
  const int s = spine_for(p.flow);
  DomainState& S = dom_.back();
  const Tick d = stage_delay(static_cast<std::uint32_t>(pods_ + s), p,
                             S.spine[static_cast<std::size_t>(s)]);
  pe_.domain(spine_domain_).schedule_in(d, [this, p] { spine_forward(p); });
}

void Fabric::spine_forward(const Packet& p) {
  const int s = spine_for(p.flow);
  const int dp = pod_of(p.dst);
  spine_to_leaf_[static_cast<std::size_t>(dp)][static_cast<std::size_t>(s)]
      ->transmit(p.flow, p.size, {}, [this, p] {
        const Tick t =
            pe_.domain(spine_domain_).now() + config_.trunk_prop();
        pe_.post(spine_domain_, pod_of(p.dst), t,
                 [this, p] { packet_at_dst_leaf(p); });
      });
}

void Fabric::packet_at_dst_leaf(const Packet& p) {
  const int dp = pod_of(p.dst);
  const Tick d = stage_delay(static_cast<std::uint32_t>(dp), p, dom(dp).leaf);
  pe_.domain(dp).schedule_in(d, [this, p] { leaf_forward_dst(p); });
}

void Fabric::leaf_forward_dst(const Packet& p) {
  downlinks_[static_cast<std::size_t>(p.dst)]->transmit(
      p.flow, p.size, {}, [this, p] { downlink_arrive(p); });
}

void Fabric::downlink_arrive(const Packet& p) {
  pe_.domain(domain_of(p.dst))
      .schedule_in(config_.recv_overhead, [this, p] { complete_packet(p); });
}

void Fabric::complete_packet(const Packet& p) {
  DomainState& D = dom(domain_of(p.dst));
  ++D.counters.packets_delivered;
  auto it = D.in_flight.find(p.msg_id);
  ACTNET_CHECK(it != D.in_flight.end());
  ACTNET_CHECK(it->second.remaining > 0);
  if (--it->second.remaining == 0) {
    Callback cb = std::move(it->second.on_delivered);
    D.in_flight.erase(it);
    ++D.counters.messages_delivered;
    if (cb) cb();  // may reenter send() — in this domain, which is legal
  }
}

FabricCounters Fabric::total_counters() const {
  FabricCounters t;
  for (const DomainState& d : dom_) {
    t.messages_sent += d.counters.messages_sent;
    t.messages_delivered += d.counters.messages_delivered;
    t.packets_delivered += d.counters.packets_delivered;
    t.bytes_sent += d.counters.bytes_sent;
  }
  return t;
}

std::string Fabric::digest() const {
  std::ostringstream os;
  os.precision(17);
  os << "fabric k=" << config_.k << " nodes=" << config_.nodes
     << " pods=" << pods_ << " spines=" << spines() << "\n";
  for (int n = 0; n < config_.nodes; ++n) {
    const Link& u = *uplinks_[static_cast<std::size_t>(n)];
    const Link& d = *downlinks_[static_cast<std::size_t>(n)];
    os << "node " << n << " up " << u.packets_sent() << ' ' << u.bytes_sent()
       << ' ' << u.busy_time() << " down " << d.packets_sent() << ' '
       << d.bytes_sent() << ' ' << d.busy_time() << "\n";
  }
  for (int p = 0; p < pods_ && pods_ > 1; ++p) {
    for (int s = 0; s < config_.spines; ++s) {
      const Link& up = *leaf_to_spine_[static_cast<std::size_t>(p)]
                                      [static_cast<std::size_t>(s)];
      const Link& dn = *spine_to_leaf_[static_cast<std::size_t>(p)]
                                      [static_cast<std::size_t>(s)];
      os << "trunk " << p << ':' << s << " up " << up.packets_sent() << ' '
         << up.bytes_sent() << ' ' << up.busy_time() << " down "
         << dn.packets_sent() << ' ' << dn.bytes_sent() << ' '
         << dn.busy_time() << "\n";
    }
  }
  const auto dump_switch = [&os](const char* kind, int idx,
                                 const SwitchCounters& c) {
    os << kind << ' ' << idx << ' ' << c.packets << ' ' << c.bytes << ' '
       << c.time_in_switch << ' ' << c.stage_latency_us.count() << ' '
       << c.stage_latency_us.mean() << ' ' << c.stage_latency_us.variance()
       << "\n";
  };
  for (int p = 0; p < pods_; ++p)
    dump_switch("leaf", p, dom_[static_cast<std::size_t>(p)].leaf);
  for (int s = 0; pods_ > 1 && s < config_.spines; ++s)
    dump_switch("spine", s, dom_.back().spine[static_cast<std::size_t>(s)]);
  for (int d = 0; d < domains(); ++d) {
    const FabricCounters& c = dom_[static_cast<std::size_t>(d)].counters;
    os << "domain " << d << " sent " << c.messages_sent << ' ' << c.bytes_sent
       << " delivered " << c.messages_delivered << ' ' << c.packets_delivered
       << " events " << pe_.domain(d).events_processed() << "\n";
  }
  // DRR rounds stay out: they count scheduler visits, not simulated traffic.
  const obs::LocalHistogram depth = port_totals().depth;
  os << "depth " << depth.count() << ' ' << depth.sum() << " peak "
     << depth.max() << " buckets";
  for (int i = 0; i < obs::Histogram::kBuckets; ++i)
    if (depth.bucket(i) > 0) os << ' ' << i << ':' << depth.bucket(i);
  os << "\n";
  return os.str();
}

}  // namespace actnet::net
