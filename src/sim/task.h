// Coroutine process type for the simulator.
//
// Every simulated activity with sequential logic — an MPI rank program, a
// NIC pump, a probe loop — is a C++20 coroutine returning sim::Task. A task
// suspends into the event engine via awaitables (Delay, Event) and composes
// with `co_await child_task()`, so simulated programs read like straight
// MPI code while the engine interleaves hundreds of them deterministically.
//
// Ownership: a Task owns its coroutine frame and destroys it in its
// destructor. A parent awaiting a child keeps the child Task alive in its
// own frame, so tearing down a root task releases the whole await chain.
//
// Frames come from the thread-local size-class free lists (util/freelist.h):
// an MPI send/recv is a short-lived child task, so the message path would
// otherwise pay one heap allocation per call.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "util/error.h"
#include "util/freelist.h"

namespace actnet::sim {

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    bool finished = false;

    static void* operator new(std::size_t bytes) {
      return util::pooled_alloc(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      util::pooled_free(p, bytes);
    }

    Task get_return_object() noexcept {
      return Task(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        promise_type& p = h.promise();
        p.finished = true;
        if (p.continuation) return p.continuation;  // symmetric transfer
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return !h_ || h_.promise().finished; }

  /// Kicks a root task (it starts suspended). Resumes until its first
  /// suspension point; further progress is driven by engine events.
  void start() {
    ACTNET_CHECK(h_ && !h_.promise().finished);
    h_.resume();
    rethrow_if_failed();
  }

  /// Rethrows an exception that escaped the coroutine body, if any.
  void rethrow_if_failed() const {
    if (h_ && h_.promise().exception)
      std::rethrow_exception(h_.promise().exception);
  }

  /// Awaiting a task suspends the awaiter and transfers into the child;
  /// the child resumes the awaiter from its final suspend.
  auto operator co_await() const noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return h.promise().finished; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() const {
        if (h.promise().exception)
          std::rethrow_exception(h.promise().exception);
      }
    };
    ACTNET_CHECK(h_);
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  Handle h_{};
};

}  // namespace actnet::sim
