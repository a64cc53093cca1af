#include "net/link.h"

#include <algorithm>
#include <new>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/freelist.h"

namespace actnet::net {

Link::Link(sim::Engine& engine, double bytes_per_sec, Tick propagation,
           Bytes quantum)
    : engine_(engine), bytes_per_sec_(bytes_per_sec),
      propagation_(propagation), quantum_(quantum) {
  ACTNET_CHECK(bytes_per_sec > 0.0);
  ACTNET_CHECK(propagation >= 0);
  ACTNET_CHECK(quantum > 0);
}

Link::~Link() {
  for (Record* block : blocks_) {
    for (std::uint32_t i = 0; i < kBlockRecords; ++i) block[i].~Record();
    util::pooled_free(block, sizeof(Record) * kBlockRecords);
  }
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

// --- packet records ---

void Link::add_block() {
  auto* block = static_cast<Record*>(
      util::pooled_alloc(sizeof(Record) * kBlockRecords));
  const auto base = static_cast<std::uint32_t>(blocks_.size()) * kBlockRecords;
  for (std::uint32_t i = 0; i < kBlockRecords; ++i) {
    ::new (static_cast<void*>(&block[i])) Record{};
    block[i].next = i + 1 < kBlockRecords ? base + i + 1 : free_records_;
  }
  blocks_.push_back(block);
  free_records_ = base;
}

void Link::release_spare_blocks() {
  if (blocks_.size() <= 1) return;
  // Nothing is queued or in service, so every record is free and the free
  // list is rebuilt over the first block alone.
  for (std::size_t b = 1; b < blocks_.size(); ++b) {
    for (std::uint32_t i = 0; i < kBlockRecords; ++i) blocks_[b][i].~Record();
    util::pooled_free(blocks_[b], sizeof(Record) * kBlockRecords);
  }
  blocks_.resize(1);
  for (std::uint32_t i = 0; i < kBlockRecords; ++i)
    blocks_[0][i].next = i + 1 < kBlockRecords ? i + 1 : kNone;
  free_records_ = 0;
}

std::uint32_t Link::new_record(Bytes size, sim::EventFn&& on_serialized,
                               sim::EventFn&& on_arrive) {
  if (free_records_ == kNone) add_block();
  const std::uint32_t r = free_records_;
  Record& rec = record(r);
  free_records_ = rec.next;
  rec.size = size;
  rec.next = kNone;
  rec.serialized =
      on_serialized ? serialized_.put(std::move(on_serialized)) : kNone;
  rec.on_arrive = std::move(on_arrive);
  return r;
}

void Link::free_record(std::uint32_t r) {
  Record& rec = record(r);
  rec.on_arrive = nullptr;
  rec.next = free_records_;
  free_records_ = r;
}

// --- flow index and DRR ring ---

namespace {

std::uint32_t flow_hash(FlowId flow, std::size_t table_size) {
  return (flow * 0x9E3779B1u) & static_cast<std::uint32_t>(table_size - 1);
}

}  // namespace

std::uint32_t Link::find_flow(FlowId flow) const {
  if (flow_index_.empty()) return kNone;
  const auto mask = static_cast<std::uint32_t>(flow_index_.size() - 1);
  for (std::uint32_t h = flow_hash(flow, flow_index_.size());;
       h = (h + 1) & mask) {
    const std::uint32_t s = flow_index_[h];
    if (s == kNone || flows_[s].id == flow) return s;
  }
}

void Link::index_flow(std::uint32_t slot) {
  const auto mask = static_cast<std::uint32_t>(flow_index_.size() - 1);
  std::uint32_t h = flow_hash(flows_[slot].id, flow_index_.size());
  while (flow_index_[h] != kNone) h = (h + 1) & mask;
  flow_index_[h] = slot;
}

std::uint32_t Link::flow_slot(FlowId flow) {
  if (const std::uint32_t s = find_flow(flow); s != kNone) return s;
  const auto s = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(FlowState{});
  flows_.back().id = flow;
  // Keep the index at most half full so probes stay short.
  if (flows_.size() * 2 > flow_index_.size()) {
    flow_index_.assign(flow_index_.empty() ? 8 : flow_index_.size() * 2,
                       kNone);
    for (std::uint32_t i = 0; i < flows_.size(); ++i) index_flow(i);
  } else {
    index_flow(s);
  }
  return s;
}

void Link::ring_push_back(std::uint32_t flow_slot) {
  if (ring_size_ == ring_.size()) {
    // Full (or never used): unroll into a buffer twice the size.
    std::vector<std::uint32_t> grown(ring_.empty() ? 4 : ring_.size() * 2);
    for (std::uint32_t i = 0; i < ring_size_; ++i)
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = flow_slot;
  ++ring_size_;
}

// --- transmission ---

void Link::transmit(FlowId flow, Bytes size, sim::EventFn&& on_serialized,
                    sim::EventFn&& on_arrive) {
  ACTNET_CHECK(size > 0);
  ACTNET_CHECK(on_arrive);
  // A competing enqueue ends the flow-forward regime for any message that
  // analytically advanced past this port: re-materialize it first so its
  // packets keep their FIFO position ahead of the newcomer.
  if (ffwd_guard_) fire_flowfwd_guard();
  enqueue(flow_slot(flow),
          new_record(size, std::move(on_serialized), std::move(on_arrive)));
  if (!busy_) start_next();
}

void Link::transmit_train(FlowId flow, std::uint32_t count, Bytes full_size,
                          Bytes tail_size, sim::EventFn&& on_last_serialized,
                          TrainArriveFn&& on_arrive) {
  ACTNET_CHECK(count > 0);
  ACTNET_CHECK(on_arrive);
  ACTNET_CHECK(full_size > 0 || (count == 1 && tail_size > 0));
  ACTNET_CHECK(tail_size >= 0);
  if (ffwd_guard_) fire_flowfwd_guard();
  const std::uint32_t slot = trains_.put(Train{std::move(on_arrive), count});
  const std::uint32_t fs = flow_slot(flow);
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    enqueue(fs, new_record(last && tail_size > 0 ? tail_size : full_size,
                           last ? std::move(on_last_serialized) : nullptr,
                           [this, slot, i] { train_arrive(slot, i); }));
  }
  if (!busy_) start_next();
}

void Link::note_enqueue_depth(std::size_t depth) {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->add(depth);
    m_queue_peak_->max(static_cast<double>(depth));
  }
}

void Link::enqueue(std::uint32_t flow_slot, std::uint32_t r) {
  FlowState& st = flows_[flow_slot];
  if (st.tail == kNone)
    st.head = r;
  else
    record(st.tail).next = r;
  st.tail = r;
  ++queued_packets_;
  queued_bytes_ += record(r).size;
  // Demotion replay re-creates entries whose depth samples were already
  // recorded when the flow-forward was accepted; re-sampling them here
  // would make the depth distribution depend on the regime.
  if (!suppress_depth_samples_) note_enqueue_depth(queued_packets_);
  if (tracer_ != nullptr) note_depth_change();
  if (!st.in_ring) {
    st.in_ring = true;
    st.deficit = 0;
    ring_push_back(flow_slot);
  }
}

void Link::begin_service(std::uint32_t r) {
  busy_ = true;
  const Bytes size = record(r).size;
  const Tick ser = std::max<Tick>(1, units::serialization(size, bytes_per_sec_));
  busy_time_ += ser;
  ++packets_;
  bytes_ += size;
  in_service_ = r;
  engine_.schedule_in(ser, [this] { finish_service(); });
}

void Link::finish_service() {
  const std::uint32_t r = in_service_;
  in_service_ = kNone;
  // Block memory never moves, so `rec` stays valid even if a callback
  // queues new packets here (they wait: the port is still busy).
  Record& rec = record(r);
  if (rec.serialized != kNone) {
    sim::EventFn on_serialized = serialized_.take(rec.serialized);
    rec.serialized = kNone;
    on_serialized();
  }
  if (propagation_ == 0) {
    sim::EventFn on_arrive = std::move(rec.on_arrive);
    free_record(r);
    on_arrive();
  } else {
    engine_.schedule_in(propagation_, std::move(rec.on_arrive));
    free_record(r);
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

void Link::arm_flowfwd_guard(sim::EventFn&& on_competitor) {
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
                              sim::EventFn&& on_serialized,
                              sim::EventFn&& on_arrive) {
  ACTNET_CHECK(!busy_);
  ACTNET_CHECK(end_at >= engine_.now());
  busy_ = true;
  // Bypasses begin_service: the demoting caller credits packets/bytes/
  // busy-time for every already-started packet in one credit_flowfwd call.
  in_service_ =
      new_record(size, std::move(on_serialized), std::move(on_arrive));
  engine_.schedule_at(end_at, [this] { finish_service(); });
}

void Link::restore_queued(FlowId flow, Bytes size,
                          sim::EventFn&& on_serialized,
                          sim::EventFn&& on_arrive) {
  ACTNET_CHECK_MSG(busy_, "restore_queued on a free port (restore the "
                          "in-service packet first)");
  suppress_depth_samples_ = true;
  enqueue(flow_slot(flow),
          new_record(size, std::move(on_serialized), std::move(on_arrive)));
  suppress_depth_samples_ = false;
}

void Link::restore_flow_front(FlowId flow, Bytes deficit, bool visited) {
  const std::uint32_t s = find_flow(flow);
  ACTNET_CHECK(s != kNone && flows_[s].in_ring);
  ACTNET_CHECK(flows_[s].head != kNone);
  ACTNET_CHECK(ring_size_ > 0 && ring_[ring_head_] == s);
  flows_[s].deficit = deficit;
  flows_[s].visited = visited;
}

void Link::train_arrive(std::uint32_t slot, std::uint32_t index) {
  trains_.at(slot).on_arrive(index);
  Train& tr = trains_.at(slot);
  if (--tr.live == 0) trains_.take(slot);
}

void Link::start_next() {
  if (ring_size_ == 0) {
    release_spare_blocks();  // idle port: keep one block, return the rest
    return;
  }
  // Classic DRR (Shreedhar & Varghese): the front flow is credited one
  // quantum per visit and serves packets while its deficit covers them;
  // when the deficit runs out the visit ends and the flow rotates to the
  // back, keeping the remainder so arbitrarily large packets eventually
  // pass. A flow keeps serving across service events within one visit
  // (the `visited` flag suppresses re-crediting).
  const auto mask = static_cast<std::uint32_t>(ring_.size() - 1);
  while (true) {
    const std::uint32_t f = ring_[ring_head_];
    FlowState& st = flows_[f];
    ACTNET_CHECK(st.head != kNone);
    if (!st.visited) {
      st.visited = true;
      st.deficit += quantum_;
      if (m_drr_rounds_ != nullptr) m_drr_rounds_->inc();
    }
    const std::uint32_t r = st.head;
    const Bytes size = record(r).size;
    if (st.deficit < size) {
      // Visit over; rotate (the front slot moves to the back).
      st.visited = false;
      ring_[(ring_head_ + ring_size_) & mask] = f;
      ring_head_ = (ring_head_ + 1) & mask;
      continue;
    }
    // Serve this packet.
    st.head = record(r).next;
    st.deficit -= size;
    --queued_packets_;
    queued_bytes_ -= size;
    if (tracer_ != nullptr) note_depth_change();
    if (st.head == kNone) {
      st.tail = kNone;
      st.deficit = 0;
      st.in_ring = false;
      st.visited = false;
      ring_head_ = (ring_head_ + 1) & mask;
      --ring_size_;
    }
    begin_service(r);
    return;
  }
}

}  // namespace actnet::net
