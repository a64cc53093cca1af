// Free-list slot pool for pending-transmission records.
//
// Switches and links park (packet, callback) records while a simulated
// delay elapses. Capturing those records inside the scheduled closure
// would blow past the engine's inline-callable capacity and put a heap
// allocation on every packet hop; parking them in a pool lets the closure
// capture just {owner, slot index} and stay inline. Slots are recycled
// through a free list, so the steady state allocates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace actnet::net {

template <class T>
class SlotPool {
 public:
  /// Stores `value`, returning its slot index.
  std::uint32_t put(T&& value) {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      slots_[s] = std::move(value);
      return s;
    }
    slots_.push_back(std::move(value));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// The live record in `slot` (valid until take()).
  T& at(std::uint32_t slot) { return slots_[slot]; }
  const T& at(std::uint32_t slot) const { return slots_[slot]; }

  /// Moves the record out of `slot` and recycles the slot.
  T take(std::uint32_t slot) {
    T value = std::move(slots_[slot]);
    free_.push_back(slot);
    return value;
  }

  std::size_t live() const { return slots_.size() - free_.size(); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace actnet::net
