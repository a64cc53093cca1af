// Communicator: rank naming, message matching, and the wire protocol.
//
// Each job owns one Comm. Point-to-point traffic uses an eager protocol for
// messages up to `eager_threshold` (data is pushed immediately; the send
// completes when it has left the host) and a rendezvous protocol above it
// (a small RTS control message is matched at the receiver, which answers
// with CTS before the data moves — the handshake travels over the real
// simulated network and therefore feels contention, as on a real cluster).
//
// Matching follows MPI semantics: posted receives are matched against
// arrivals by (source, tag) with MPI_ANY_SOURCE/MPI_ANY_TAG wildcards
// supported; arrivals that find no posted receive wait in an unexpected
// queue. Arrival order equals send order for any (src,dst) pair up to
// switch-jitter reordering of same-sized back-to-back messages, which
// cannot change any timing observable in this simulator (messages carry no
// data).
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/machine.h"
#include "mpi/request.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/inline_fn.h"
#include "util/units.h"

namespace actnet::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct MpiConfig {
  /// CPU cost of posting an Isend/Irecv (charged on the rank's timeline).
  Tick post_overhead = units::ns(120);
  /// Messages larger than this use the rendezvous protocol.
  Bytes eager_threshold = units::KiB(16);
  /// Wire size of RTS/CTS control messages.
  Bytes ctrl_bytes = 64;
  /// Envelope header added to every message's wire size.
  Bytes header_bytes = 64;
  /// When false (the realistic default for MPIs without a progress
  /// thread), rendezvous handshake steps on a rank's side advance only
  /// while that rank is inside an MPI call (posting or waiting); steps
  /// that become ready while it computes are deferred to its next call.
  bool async_progress = false;
};

class Comm {
 public:
  Comm(sim::Engine& engine, net::Network& network, MpiConfig config,
       std::vector<net::NodeId> rank_nodes);
  /// Publishes the protocol counts into obs::default_registry() ("mpi.*":
  /// eager/rendezvous sends, unexpected-queue depth distribution and peak).
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  net::NodeId node_of(int rank) const;
  /// Fair-queueing flow id of `rank` (globally unique across jobs).
  net::FlowId flow_of(int rank) const;
  const MpiConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }

  /// Posts a send of `bytes` from `src` to `dst` with `tag`; returns a
  /// request that completes when the data has left the source host.
  Request post_send(int src, int dst, int tag, Bytes bytes);

  /// Posts a receive at `dst` matching (`src`, `tag`), either of which may
  /// be a wildcard; completes when the matched message has fully arrived.
  Request post_recv(int dst, int src, int tag);

  // --- progress-engine model (see MpiConfig::async_progress) ---
  /// Runs protocol steps deferred while `rank` was computing. Called by the
  /// rank context at every MPI entry point.
  void progress(int rank);
  /// Marks `rank` as blocked inside MPI_Wait (progress runs continuously).
  void set_blocked(int rank, bool blocked);
  bool blocked(int rank) const;
  std::size_t deferred_count(int rank) const;

  // --- introspection for tests ---
  std::size_t posted_count(int rank) const;
  std::size_t unexpected_count(int rank) const;

 private:
  struct PostedRecv {
    int src;
    int tag;
    Request req;
  };
  /// An arrived envelope (eager data or rendezvous RTS) not yet matched.
  struct Arrival {
    int src;
    int tag;
    /// Invoked when a receive matches this arrival.
    sim::InlineFn<void(const Request&)> on_match;
  };
  /// Vectors, not deques: a deque frees and re-allocates a chunk every few
  /// dozen push/pop pairs, while a vector reaches its high-water capacity
  /// once and then matches without touching the heap. The queues are short
  /// (a few entries on average), so erasing from the middle is cheap.
  struct RankQueues {
    std::vector<PostedRecv> posted;
    std::vector<Arrival> unexpected;
  };

  void arrive(int dst, Arrival arrival);
  static bool matches(int want_src, int want_tag, int src, int tag);
  /// Runs `fn` now if `rank` can make progress (async progress enabled, or
  /// rank blocked in MPI); otherwise defers it to the rank's next MPI call.
  void run_on_progress(int rank, sim::EventFn&& fn);

  /// A rank's deferred protocol steps, first in first out: a ring that
  /// grows to its high-water mark once and then queues without touching
  /// the heap.
  class Deferred {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void push(sim::EventFn&& fn);
    sim::EventFn pop();

   private:
    std::vector<sim::EventFn> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  sim::Engine& engine_;
  net::Network& network_;
  MpiConfig config_;
  std::vector<net::NodeId> rank_nodes_;
  std::vector<RankQueues> queues_;
  net::FlowId flow_base_;
  std::vector<Deferred> deferred_;
  std::vector<char> blocked_;

  std::uint64_t sends_eager_ = 0;
  std::uint64_t sends_rendezvous_ = 0;
  /// Unexpected-queue depth after each unmatched arrival.
  obs::LocalHistogram unexpected_depth_;
};

}  // namespace actnet::mpi
