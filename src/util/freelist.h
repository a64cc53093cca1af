// Thread-local size-class free lists for the simulator's hot-path records.
//
// Coroutine frames (sim::Task), MPI request states and link packet-record
// blocks are allocated and released millions of times per campaign, always
// in a handful of fixed sizes and almost always on the worker thread that
// runs the experiment. pooled_alloc() serves them from a per-thread free
// list per 16-byte size class, so after warm-up the message path makes no
// heap calls at all. Blocks are plain ::operator new memory: a block freed
// on another thread than the one that allocated it simply joins that
// thread's list. Each list keeps at most its thread's high-water mark of
// live blocks; a thread's cached blocks are returned to the heap when the
// thread exits.
//
// Under AddressSanitizer the lists are compiled out and every call passes
// straight to ::operator new / ::operator delete, so ASan still reports a
// use-after-free of a coroutine frame or a request.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define ACTNET_FREELIST_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACTNET_FREELIST_PASSTHROUGH 1
#endif
#endif

namespace actnet::util {

namespace detail {

inline constexpr std::size_t kFreeListGrain = 16;
/// Largest pooled size; bigger requests go to ::operator new.
inline constexpr std::size_t kFreeListMaxBytes = 2048;
inline constexpr std::size_t kFreeListClasses =
    kFreeListMaxBytes / kFreeListGrain + 1;

struct FreeBlock {
  FreeBlock* next;
};

/// Per-thread list heads. Trivially destructible on purpose: the reaper
/// (freelist.cpp) empties the lists at thread exit and sets `dead`, after
/// which late frees from other thread-local destructors go to the heap.
struct FreeLists {
  FreeBlock* head[kFreeListClasses];
  bool dead;
};

inline thread_local FreeLists tl_free_lists{};

/// First allocation of a class on this thread (or after thread-exit
/// teardown): registers the reaper and allocates from the heap.
void* freelist_refill(std::size_t cls);

inline std::size_t size_class(std::size_t bytes) {
  return bytes == 0 ? 1 : (bytes + kFreeListGrain - 1) / kFreeListGrain;
}

}  // namespace detail

/// Allocates `bytes` (alignment of ::operator new) from this thread's free
/// list for its size class.
inline void* pooled_alloc(std::size_t bytes) {
#ifdef ACTNET_FREELIST_PASSTHROUGH
  return ::operator new(bytes);
#else
  const std::size_t cls = detail::size_class(bytes);
  if (cls >= detail::kFreeListClasses) return ::operator new(bytes);
  detail::FreeBlock*& head = detail::tl_free_lists.head[cls];
  if (detail::FreeBlock* b = head; b != nullptr) {
    head = b->next;
    return b;
  }
  return detail::freelist_refill(cls);
#endif
}

/// Returns a block from pooled_alloc(`bytes`) — the same byte count.
inline void pooled_free(void* p, std::size_t bytes) noexcept {
#ifdef ACTNET_FREELIST_PASSTHROUGH
  (void)bytes;
  ::operator delete(p);
#else
  const std::size_t cls = detail::size_class(bytes);
  if (cls >= detail::kFreeListClasses || detail::tl_free_lists.dead) {
    ::operator delete(p);
    return;
  }
  auto* b = static_cast<detail::FreeBlock*>(p);
  b->next = detail::tl_free_lists.head[cls];
  detail::tl_free_lists.head[cls] = b;
#endif
}

/// Standard allocator over pooled_alloc, for std::allocate_shared and
/// friends (types aligned to at most alignof(std::max_align_t)).
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(pooled_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pooled_free(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace actnet::util
