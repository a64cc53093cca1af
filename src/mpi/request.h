// Nonblocking-operation requests.
//
// A Request is shared state between the posting rank and the transport:
// the transport fires it when the operation completes; the rank co_awaits
// it. Each handle holds one reference, so the state lives until whichever
// side finishes last.
//
// A request lives and dies on the one thread that runs its experiment: it
// is made by Comm inside an event of that experiment's engine, and only
// that engine's events and the rank's coroutine frame hold handles to it.
// So the count is a plain integer, not shared_ptr's atomic one, and every
// message's two requests cost no locked instructions. The state comes from
// the thread-local free lists (util/freelist.h) instead of the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "sim/awaitable.h"
#include "sim/engine.h"
#include "util/freelist.h"

namespace actnet::mpi {

class Request;

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
  friend class Request;
  sim::Event done_;
  std::uint32_t refs_ = 1;  ///< handles; the first is make_request's
};

/// Owning handle to a RequestState; copies share it. Null when
/// default-constructed or moved from.
class Request {
 public:
  Request() noexcept = default;
  Request(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  Request(const Request& o) noexcept : s_(o.s_) {
    if (s_ != nullptr) ++s_->refs_;
  }
  Request(Request&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~Request() { release(); }

  RequestState* operator->() const noexcept { return s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }
  friend bool operator==(const Request& r, std::nullptr_t) noexcept {
    return r.s_ == nullptr;
  }

  /// A fresh, incomplete request on `engine`.
  friend Request make_request(sim::Engine& engine) {
    Request r;
    r.s_ = ::new (util::pooled_alloc(sizeof(RequestState)))
        RequestState(engine);
    return r;
  }

 private:
  void release() noexcept {
    if (s_ == nullptr || --s_->refs_ > 0) return;
    s_->~RequestState();
    util::pooled_free(s_, sizeof(RequestState));
  }

  RequestState* s_ = nullptr;
};

Request make_request(sim::Engine& engine);

}  // namespace actnet::mpi
