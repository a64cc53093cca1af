// The event queue behind sim::Engine: a 4-ary implicit min-heap over
// 24-byte POD keys, ordered by (time, creation tick, sequence place) —
// the engine's total order. Shallower than binary for the same size, so a
// sift touches fewer cache lines; children of node i are 4i+1 .. 4i+4.
// O(log n)
// schedule/pop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace actnet::sim {

/// Queue key; the event callable lives out-of-line in the engine's slot
/// vector so queue maintenance moves 24-byte PODs, not 64-byte callables.
///
/// Events at one tick run in creation-tick order, then in sequence-place
/// order. `lag` is the event's delay from its creation tick, saturated at
/// kMaxLag, so a larger lag means an earlier creation. An event scheduled
/// the ordinary way is created at now() at the next place, and creation
/// ticks never decrease along the sequence, so for such events the key is
/// plain (time, sequence) FIFO order; saturation keeps that, because it
/// maps larger delays to larger-or-equal lags. Only an event scheduled as
/// of another creation tick and an earlier place (Engine::schedule_as_of)
/// takes a different place.
struct EventKey {
  static constexpr std::uint32_t kMaxLag = 0xffffffffu;

  Tick t;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t lag;

  static std::uint32_t lag_of(Tick t, Tick created) {
    const auto lag = static_cast<std::uint64_t>(t - created);
    return lag < kMaxLag ? static_cast<std::uint32_t>(lag) : kMaxLag;
  }

  bool before(const EventKey& o) const {
    if (t != o.t) return t < o.t;
    if (lag != o.lag) return lag > o.lag;
    return seq < o.seq;
  }

  bool operator==(const EventKey& o) const {
    return t == o.t && seq == o.seq && slot == o.slot && lag == o.lag;
  }
};
static_assert(sizeof(EventKey) == 24);

namespace detail {

inline constexpr std::size_t kHeapArity = 4;

inline void heap_push(std::vector<EventKey>& heap, EventKey k) {
  std::size_t i = heap.size();
  heap.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!heap[i].before(heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

inline EventKey heap_pop(std::vector<EventKey>& heap) {
  const EventKey top = heap.front();
  const EventKey last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    // Sift the former last element down from the root.
    std::size_t i = 0;
    const std::size_t n = heap.size();
    while (true) {
      const std::size_t first_child = i * kHeapArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kHeapArity < n ? first_child + kHeapArity : n;
      for (std::size_t c = first_child + 1; c < end; ++c)
        if (heap[c].before(heap[best])) best = c;
      if (!heap[best].before(last)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  return top;
}

}  // namespace detail
}  // namespace actnet::sim
