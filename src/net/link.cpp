#include "net/link.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace actnet::net {

Link::Link(sim::Engine& engine, double bytes_per_sec, Tick propagation,
           Bytes quantum)
    : engine_(engine), bytes_per_sec_(bytes_per_sec),
      propagation_(propagation), quantum_(quantum) {
  ACTNET_CHECK(bytes_per_sec > 0.0);
  ACTNET_CHECK(propagation >= 0);
  ACTNET_CHECK(quantum > 0);
}

void Link::attach_metrics(obs::Counter* drr_rounds,
                          obs::Histogram* queue_depth,
                          obs::Gauge* queue_depth_peak) {
  m_drr_rounds_ = drr_rounds;
  m_queue_depth_ = queue_depth;
  m_queue_peak_ = queue_depth_peak;
}

void Link::set_trace(obs::Tracer* tracer, int pid, std::string track) {
  tracer_ = tracer;
  trace_pid_ = pid;
  trace_track_ = std::move(track);
}

void Link::note_depth_change() {
  if (tracer_ != nullptr && tracer_->active(engine_.now())) {
    tracer_->counter(trace_pid_, trace_track_, engine_.now(),
                     static_cast<double>(queued_packets_));
  }
}

void Link::transmit(FlowId flow, Bytes size, sim::EventFn on_serialized,
                    sim::EventFn on_arrive) {
  ACTNET_CHECK(size > 0);
  ACTNET_CHECK(on_arrive);
  // A competing enqueue ends the flow-forward regime for any message that
  // analytically advanced past this port: re-materialize it first so its
  // packets keep their FIFO position ahead of the newcomer.
  if (ffwd_guard_) fire_flowfwd_guard();
  enqueue_item(flow,
               Item{size, std::move(on_serialized), std::move(on_arrive)});
  if (!busy_) start_next();
}

void Link::transmit_train(FlowId flow, std::uint32_t count, Bytes full_size,
                          Bytes tail_size, sim::EventFn on_last_serialized,
                          TrainArriveFn on_arrive) {
  ACTNET_CHECK(count > 0);
  ACTNET_CHECK(on_arrive);
  ACTNET_CHECK(full_size > 0 || (count == 1 && tail_size > 0));
  ACTNET_CHECK(tail_size >= 0);
  if (ffwd_guard_) fire_flowfwd_guard();
  const std::uint32_t slot = trains_.put(Train{std::move(on_arrive), count});
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    Item item;
    item.size = last && tail_size > 0 ? tail_size : full_size;
    if (last) item.on_serialized = std::move(on_last_serialized);
    item.on_arrive = [this, slot, i] { train_arrive(slot, i); };
    enqueue_item(flow, std::move(item));
  }
  if (!busy_) start_next();
}

void Link::note_enqueue_depth(std::size_t depth) {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->add(depth);
    m_queue_peak_->max(static_cast<double>(depth));
  }
}

void Link::enqueue_item(FlowId flow, Item item) {
  FlowState& st = flows_[flow];
  const Bytes size = item.size;
  st.queue.push_back(std::move(item));
  ++queued_packets_;
  queued_bytes_ += size;
  // Demotion replay re-creates entries whose depth samples were already
  // recorded when the flow-forward was accepted; re-sampling them here
  // would make the depth distribution depend on the regime.
  if (!suppress_depth_samples_) note_enqueue_depth(queued_packets_);
  if (tracer_ != nullptr) note_depth_change();
  if (!st.in_ring) {
    st.in_ring = true;
    st.deficit = 0;
    ring_.push_back(flow);
  }
}

void Link::begin_service(Item item) {
  busy_ = true;
  const Tick ser =
      std::max<Tick>(1, units::serialization(item.size, bytes_per_sec_));
  busy_time_ += ser;
  ++packets_;
  bytes_ += item.size;
  // One packet serializes at a time, so the in-service record lives in a
  // member and the event below captures only `this` (stays inline).
  in_service_ = std::move(item);
  engine_.schedule_in(ser, [this] { finish_service(); });
}

void Link::finish_service() {
  Item done = std::move(in_service_);
  if (done.on_serialized) done.on_serialized();
  if (propagation_ == 0) {
    done.on_arrive();
  } else {
    engine_.schedule_in(propagation_, std::move(done.on_arrive));
  }
  // A callback above may have queued new work; start_next sees it.
  busy_ = false;
  start_next();
}

void Link::fire_flowfwd_guard() {
  // Move the guard out first: the demotion it triggers re-enters this link
  // through restore_*(), and a completed demotion may arm a new guard.
  sim::EventFn guard = std::move(ffwd_guard_);
  ffwd_guard_ = {};
  guard();
}

void Link::arm_flowfwd_guard(sim::EventFn on_competitor) {
  ACTNET_CHECK(on_competitor);
  ACTNET_CHECK_MSG(idle(), "flow-forward guard armed on a non-idle port");
  ffwd_guard_ = std::move(on_competitor);
}

void Link::credit_flowfwd(std::uint64_t packets, Bytes bytes, Tick busy) {
  packets_ += packets;
  bytes_ += bytes;
  busy_time_ += busy;
}

void Link::credit_flowfwd_depth(std::size_t depth) {
  note_enqueue_depth(depth);
}

void Link::restore_in_service(Bytes size, Tick end_at,
                              sim::EventFn on_serialized,
                              sim::EventFn on_arrive) {
  ACTNET_CHECK(!busy_);
  ACTNET_CHECK(end_at >= engine_.now());
  busy_ = true;
  // Bypasses begin_service: the demoting caller credits packets/bytes/
  // busy-time for every already-started packet in one credit_flowfwd call.
  in_service_ = Item{size, std::move(on_serialized), std::move(on_arrive)};
  engine_.schedule_at(end_at, [this] { finish_service(); });
}

void Link::restore_queued(FlowId flow, Bytes size, sim::EventFn on_serialized,
                          sim::EventFn on_arrive) {
  ACTNET_CHECK_MSG(busy_, "restore_queued on a free port (restore the "
                          "in-service packet first)");
  suppress_depth_samples_ = true;
  enqueue_item(flow, Item{size, std::move(on_serialized), std::move(on_arrive)});
  suppress_depth_samples_ = false;
}

void Link::restore_flow_front(FlowId flow, Bytes deficit, bool visited) {
  auto it = flows_.find(flow);
  ACTNET_CHECK(it != flows_.end() && it->second.in_ring);
  ACTNET_CHECK(!it->second.queue.empty());
  ACTNET_CHECK(!ring_.empty() && ring_.front() == flow);
  it->second.deficit = deficit;
  it->second.visited = visited;
}

void Link::train_arrive(std::uint32_t slot, std::uint32_t index) {
  trains_.at(slot).on_arrive(index);
  Train& tr = trains_.at(slot);
  if (--tr.live == 0) trains_.take(slot);
}

void Link::start_next() {
  if (ring_.empty()) return;
  // Classic DRR (Shreedhar & Varghese): the front flow is credited one
  // quantum per visit and serves packets while its deficit covers them;
  // when the deficit runs out the visit ends and the flow rotates to the
  // back, keeping the remainder so arbitrarily large packets eventually
  // pass. A flow keeps serving across service events within one visit
  // (the `visited` flag suppresses re-crediting).
  while (true) {
    const FlowId f = ring_.front();
    FlowState& st = flows_[f];
    ACTNET_CHECK(!st.queue.empty());
    if (!st.visited) {
      st.visited = true;
      st.deficit += quantum_;
      if (m_drr_rounds_ != nullptr) m_drr_rounds_->inc();
    }
    if (st.deficit < st.queue.front().size) {
      // Visit over; rotate.
      st.visited = false;
      ring_.pop_front();
      ring_.push_back(f);
      continue;
    }
    // Serve this packet.
    Item item = std::move(st.queue.front());
    st.queue.pop_front();
    st.deficit -= item.size;
    --queued_packets_;
    queued_bytes_ -= item.size;
    if (tracer_ != nullptr) note_depth_change();
    if (st.queue.empty()) {
      st.deficit = 0;
      st.in_ring = false;
      st.visited = false;
      ring_.pop_front();
    }
    begin_service(std::move(item));
    return;
  }
}

}  // namespace actnet::net
