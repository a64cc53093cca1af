// Nonblocking-operation requests.
//
// A Request is shared state between the posting rank and the transport:
// the transport fires it when the operation completes; the rank co_awaits
// it. shared_ptr keeps the state alive across whichever side finishes
// last. Every message posts two requests, so make_request() places the
// state and its control block in one block from the thread-local free
// lists (util/freelist.h) instead of the heap.
#pragma once

#include <memory>

#include "sim/awaitable.h"
#include "sim/engine.h"
#include "util/freelist.h"

namespace actnet::mpi {

class RequestState {
 public:
  explicit RequestState(sim::Engine& engine) : done_(engine) {}

  /// Marks the operation complete and releases waiters. Idempotent.
  void complete() { done_.fire(); }

  /// MPI_Test-like non-consuming completion check.
  bool test() const { return done_.fired(); }

  /// Awaitable completion event (MPI_Wait).
  auto wait() { return done_.wait(); }

  /// Registers a suspended coroutine for resumption on completion.
  void subscribe(std::coroutine_handle<> h) { done_.subscribe(h); }

 private:
  sim::Event done_;
};

using Request = std::shared_ptr<RequestState>;

/// A fresh, incomplete request on `engine`.
inline Request make_request(sim::Engine& engine) {
  return std::allocate_shared<RequestState>(
      util::PoolAllocator<RequestState>{}, engine);
}

}  // namespace actnet::mpi
