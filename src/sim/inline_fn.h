// Small-buffer move-only callable for the event hot path.
//
// Every event the engine dispatches used to be a std::function, whose
// libstdc++ small-object buffer (16 bytes) is too small for the closures
// the network layer schedules (`[this, Packet]` is 48 bytes), so nearly
// every packet hop paid a heap allocation. InlineFn stores any callable
// whose capture fits `Capacity` bytes directly inside the object and only
// falls back to the heap beyond that. It is move-only (no shared targets,
// no copies mid-queue) and its heap fallbacks are counted so benches and
// tests can assert the hot path allocates nothing.
//
// Most hot-path closures capture only pointers, ids and a Packet — they are
// trivially copyable. Those store no manager: moving one is a fixed-size
// memcpy and destroying one is free, so the several moves a packet's
// callback makes (link record, event slot, drain) cost no indirect calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace actnet::sim {

/// Number of InlineFn constructions that spilled to the heap since process
/// start (capture larger than the inline capacity). Monotone; sample
/// before/after a region to count its allocations.
std::uint64_t inline_fn_heap_allocations();

namespace detail {

inline std::atomic<std::uint64_t> g_inline_fn_heap_allocs{0};

}  // namespace detail

inline std::uint64_t inline_fn_heap_allocations() {
  return detail::g_inline_fn_heap_allocs.load(std::memory_order_relaxed);
}

template <class Sig, std::size_t Capacity = 48>
class InlineFn;  // primary template undefined; see the R(Args...) partial

template <class R, class... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= Capacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      if constexpr (!std::is_trivially_copyable_v<D>)
        manage_ = &inline_manage<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      detail::g_inline_fn_heap_allocs.fetch_add(1, std::memory_order_relaxed);
      invoke_ = &heap_invoke<D>;
      manage_ = &heap_manage<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  /// Capture-size ceiling for inline (allocation-free) storage.
  static constexpr std::size_t capacity() { return Capacity; }

 private:
  enum class Op { kMoveTo, kDestroy };
  using InvokeFn = R (*)(void*, Args&&...);
  using ManageFn = void (*)(void* self, void* dst, Op op);

  template <class D>
  static R inline_invoke(void* self, Args&&... args) {
    return (*static_cast<D*>(self))(std::forward<Args>(args)...);
  }
  template <class D>
  static void inline_manage(void* self, void* dst, Op op) {
    D* f = static_cast<D*>(self);
    if (op == Op::kMoveTo) ::new (dst) D(std::move(*f));
    f->~D();
  }
  template <class D>
  static R heap_invoke(void* self, Args&&... args) {
    return (**static_cast<D**>(self))(std::forward<Args>(args)...);
  }
  template <class D>
  static void heap_manage(void* self, void* dst, Op op) {
    D** slot = static_cast<D**>(self);
    if (op == Op::kMoveTo)
      ::new (dst) D*(*slot);  // steal the heap target; no reallocation
    else
      delete *slot;
  }

  void move_from(InlineFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr)
      std::memcpy(buf_, other.buf_, Capacity);  // trivially copyable target
    else
      other.manage_(other.buf_, buf_, Op::kMoveTo);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ == nullptr) return;
    if (manage_ != nullptr) manage_(buf_, nullptr, Op::kDestroy);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace actnet::sim
