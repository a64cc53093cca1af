#include "mpi/comm.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace actnet::mpi {

Comm::Comm(sim::Engine& engine, net::Network& network, MpiConfig config,
           std::vector<net::NodeId> rank_nodes)
    : engine_(engine), network_(network), config_(config),
      rank_nodes_(std::move(rank_nodes)), queues_(rank_nodes_.size()),
      flow_base_(network.allocate_flows(static_cast<int>(rank_nodes_.size()))),
      deferred_(rank_nodes_.size()), blocked_(rank_nodes_.size(), 0) {
  ACTNET_CHECK(!rank_nodes_.empty());
  for (net::NodeId n : rank_nodes_)
    ACTNET_CHECK(n >= 0 && n < network_.nodes());
  ACTNET_CHECK(config_.eager_threshold >= 0);
  ACTNET_CHECK(config_.ctrl_bytes > 0);
  if (obs::enabled()) attach_metrics(obs::default_registry());
}

void Comm::attach_metrics(obs::Registry& r) {
  m_eager_ = &r.counter("mpi.sends_eager");
  m_rendezvous_ = &r.counter("mpi.sends_rendezvous");
  m_unexpected_depth_ = &r.histogram("mpi.unexpected_queue_depth");
  m_unexpected_peak_ = &r.gauge("mpi.unexpected_queue_peak");
}

net::NodeId Comm::node_of(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return rank_nodes_[rank];
}

net::FlowId Comm::flow_of(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return flow_base_ + static_cast<net::FlowId>(rank);
}

bool Comm::matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

Request Comm::post_send(int src, int dst, int tag, Bytes bytes) {
  // Scope the synchronous protocol work, not the collectives: those are
  // coroutines whose wall time between suspensions belongs to whatever
  // events ran meanwhile.
  obs::ProfScope prof(obs::Subsystem::kMpi);
  ACTNET_CHECK(src >= 0 && src < size());
  ACTNET_CHECK(dst >= 0 && dst < size());
  ACTNET_CHECK(bytes > 0);
  auto sreq = make_request(engine_);
  const net::NodeId src_node = node_of(src);
  const net::NodeId dst_node = node_of(dst);
  const net::FlowId src_flow = flow_of(src);
  const net::FlowId dst_flow = flow_of(dst);
  const Bytes wire = bytes + config_.header_bytes;

  if (bytes <= config_.eager_threshold) {
    if (m_eager_ != nullptr) m_eager_->inc();
    // Eager: push the data now; the send completes on injection, the
    // receive on matching after full arrival.
    network_.send(src_node, dst_node, src_flow, wire,
                  /*on_injected=*/[sreq] { sreq->complete(); },
                  /*on_delivered=*/[this, dst, src, tag] {
                    arrive(dst, Arrival{src, tag, [](const Request& rreq) {
                                          rreq->complete();
                                        }});
                  });
    return sreq;
  }

  if (m_rendezvous_ != nullptr) m_rendezvous_->inc();
  // Rendezvous: RTS -> (match at receiver) -> CTS -> data. The CTS send
  // needs the receiving rank's MPI library to act, and the data injection
  // needs the sending rank's — both go through run_on_progress, which is
  // where the no-async-progress semantics live.
  network_.send(
      src_node, dst_node, src_flow, config_.ctrl_bytes,
      /*on_injected=*/nullptr,
      /*on_delivered=*/[this, src, dst, tag, wire, sreq, src_node, dst_node,
                        src_flow, dst_flow] {
        arrive(dst, Arrival{src, tag,
                            [this, src, dst, wire, sreq, src_node, dst_node,
                             src_flow, dst_flow](const Request& rreq) {
                              run_on_progress(dst, [this, src, wire, sreq,
                                                    rreq, src_node, dst_node,
                                                    src_flow, dst_flow] {
                                // CTS back to the sender...
                                network_.send(
                                    dst_node, src_node, dst_flow,
                                    config_.ctrl_bytes, nullptr,
                                    [this, src, wire, sreq, rreq, src_node,
                                     dst_node, src_flow] {
                                      run_on_progress(src, [this, wire, sreq,
                                                            rreq, src_node,
                                                            dst_node,
                                                            src_flow] {
                                        // ...then the payload.
                                        network_.send(
                                            src_node, dst_node, src_flow,
                                            wire,
                                            [sreq] { sreq->complete(); },
                                            [rreq] { rreq->complete(); });
                                      });
                                    });
                              });
                            }});
      });
  return sreq;
}

Request Comm::post_recv(int dst, int src, int tag) {
  obs::ProfScope prof(obs::Subsystem::kMpi);
  ACTNET_CHECK(dst >= 0 && dst < size());
  ACTNET_CHECK(src == kAnySource || (src >= 0 && src < size()));
  auto rreq = make_request(engine_);
  RankQueues& q = queues_[dst];
  for (auto it = q.unexpected.begin(); it != q.unexpected.end(); ++it) {
    if (matches(src, tag, it->src, it->tag)) {
      auto on_match = std::move(it->on_match);
      q.unexpected.erase(it);
      on_match(rreq);
      return rreq;
    }
  }
  q.posted.push_back(PostedRecv{src, tag, rreq});
  return rreq;
}

void Comm::arrive(int dst, Arrival arrival) {
  RankQueues& q = queues_[dst];
  for (auto it = q.posted.begin(); it != q.posted.end(); ++it) {
    if (matches(it->src, it->tag, arrival.src, arrival.tag)) {
      Request rreq = std::move(it->req);
      q.posted.erase(it);
      arrival.on_match(rreq);
      return;
    }
  }
  q.unexpected.push_back(std::move(arrival));
  if (m_unexpected_depth_ != nullptr) {
    m_unexpected_depth_->add(q.unexpected.size());
    m_unexpected_peak_->max(static_cast<double>(q.unexpected.size()));
  }
}

void Comm::run_on_progress(int rank, std::function<void()> fn) {
  ACTNET_CHECK(rank >= 0 && rank < size());
  if (config_.async_progress || blocked_[rank]) {
    fn();
    return;
  }
  deferred_[rank].push_back(std::move(fn));
}

void Comm::progress(int rank) {
  obs::ProfScope prof(obs::Subsystem::kMpi);
  ACTNET_CHECK(rank >= 0 && rank < size());
  while (!deferred_[rank].empty()) {
    auto fn = std::move(deferred_[rank].front());
    deferred_[rank].pop_front();
    fn();
  }
}

void Comm::set_blocked(int rank, bool blocked) {
  ACTNET_CHECK(rank >= 0 && rank < size());
  blocked_[rank] = blocked ? 1 : 0;
  if (blocked) progress(rank);
}

bool Comm::blocked(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return blocked_[rank] != 0;
}

std::size_t Comm::deferred_count(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return deferred_[rank].size();
}

std::size_t Comm::posted_count(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return queues_[rank].posted.size();
}

std::size_t Comm::unexpected_count(int rank) const {
  ACTNET_CHECK(rank >= 0 && rank < size());
  return queues_[rank].unexpected.size();
}

}  // namespace actnet::mpi
