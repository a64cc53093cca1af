#include "util/freelist.h"

namespace actnet::util::detail {
namespace {

/// Returns this thread's cached blocks to the heap when the thread exits.
struct FreeListReaper {
  ~FreeListReaper() {
    FreeLists& lists = tl_free_lists;
    lists.dead = true;
    for (FreeBlock*& head : lists.head) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }
};

}  // namespace

void* freelist_refill(std::size_t cls) {
  if (!tl_free_lists.dead) {
    // Constructed once per thread, on the first pooled allocation (the
    // lists are empty then, so every first call lands here).
    static thread_local FreeListReaper reaper;
    (void)reaper;
  }
  return ::operator new(cls * kFreeListGrain);
}

}  // namespace actnet::util::detail
