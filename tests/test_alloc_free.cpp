// Allocation regression gate for the message path: once the pools are warm
// (link record blocks, event slots, the size-class free lists, queue
// high-water capacities), an eager MPI message and a contended DRR burst
// must not call global operator new at all.
//
// The binary replaces global operator new/delete with counting wrappers
// around malloc/free. Under AddressSanitizer the free lists pass every
// request through to the heap (util/freelist.h), so the gate is skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "net/link.h"
#include "sim/engine.h"
#include "test_harness.h"
#include "util/freelist.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t bytes) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace actnet {
namespace {

#ifdef ACTNET_FREELIST_PASSTHROUGH
#define SKIP_UNDER_ASAN() \
  GTEST_SKIP() << "free lists pass through to the heap under ASan"
#else
#define SKIP_UNDER_ASAN() (void)0
#endif

TEST(AllocFree, CounterSeesHeapAllocations) {
  // Guards the gate itself: a replaced operator new that nobody calls
  // would make every test below pass vacuously.
  const std::uint64_t before = news();
  delete new int(7);
  EXPECT_EQ(news() - before, 1u);
}

/// Heap allocations made by `rounds` eager ping-pong round trips between
/// two nodes, after `warm_rounds` untimed ones, with ACTNET_FLOWFWD set to
/// `flowfwd` (closed-form message plans, or per-packet link and switch
/// events).
std::uint64_t eager_pingpong_allocs(const char* flowfwd, int warm_rounds,
                                    int rounds) {
  const char* saved = std::getenv("ACTNET_FLOWFWD");
  const std::string saved_value = saved ? saved : "";
  ::setenv("ACTNET_FLOWFWD", flowfwd, 1);
  test::MiniCluster mc(2);
  if (saved)
    ::setenv("ACTNET_FLOWFWD", saved_value.c_str(), 1);
  else
    ::unsetenv("ACTNET_FLOWFWD");
  mpi::Job& job = mc.add_job("pp");  // ranks 0,1 on node 0; 2,3 on node 1
  std::uint64_t at_warm = 0, at_end = 0;
  mc.run_to_completion(job, [&](mpi::RankCtx& ctx) -> sim::Task {
    for (int i = 0; i < warm_rounds + rounds; ++i) {
      if (ctx.rank() == 0) {
        if (i == warm_rounds) at_warm = news();
        co_await ctx.send(2, 1, 1024);
        co_await ctx.recv(2, 2);
      } else if (ctx.rank() == 2) {
        co_await ctx.recv(0, 1);
        co_await ctx.send(0, 2, 1024);
      }
    }
    if (ctx.rank() == 0) at_end = news();
  });
  EXPECT_GT(at_end, 0u);
  EXPECT_EQ(mc.network.in_flight_messages(), 0u);
  return at_end - at_warm;
}

TEST(AllocFree, EagerPingPongAllocatesNothingPerMessage) {
  SKIP_UNDER_ASAN();
  // Each message is a send and a receive task, two requests, a network
  // message, and its packets' link records and events.
  constexpr int kRounds = 2000;
  for (const char* flowfwd : {"on", "off"}) {
    EXPECT_EQ(eager_pingpong_allocs(flowfwd, 200, kRounds), 0u)
        << "heap allocations over " << 2 * kRounds
        << " messages with ACTNET_FLOWFWD=" << flowfwd;
  }
}

TEST(AllocFree, ContendedDrrBurstAllocatesNothingPerPacket) {
  SKIP_UNDER_ASAN();
  constexpr int kFlows = 24;
  constexpr int kPacketsPerFlow = 40;
  sim::Engine e;
  net::Link link(e, units::GBps(5.0), units::ns(50), /*quantum=*/2048);
  int arrived = 0;
  // Backlogged flows of mixed packet sizes (several DRR rounds per visit)
  // plus single packets and trains with a serialization callback, so the
  // burst exercises the flow index, the ring and the side pool.
  const auto burst = [&] {
    for (int p = 0; p < kPacketsPerFlow; ++p) {
      for (int f = 0; f < kFlows; ++f) {
        const Bytes size = 256 + 512 * ((f + p) % 9);
        if (f % 3 == 0)
          link.transmit(100 + f, size, [&] { ++arrived; }, [&] { ++arrived; });
        else
          link.transmit(100 + f, size, nullptr, [&] { ++arrived; });
      }
      link.transmit_train(7, 3, 4096, 100, [&] { ++arrived; },
                          [&](std::uint32_t) { ++arrived; });
    }
    e.run();
  };
  burst();  // warm: record blocks, flow index, ring, event slots
  burst();
  const int per_burst = kPacketsPerFlow * (kFlows + kFlows / 3 + 4);
  ASSERT_EQ(arrived, 2 * per_burst);
  const std::uint64_t before = news();
  burst();
  EXPECT_EQ(news() - before, 0u)
      << "heap allocations over " << kPacketsPerFlow * (kFlows + 3)
      << " packets";
  EXPECT_EQ(arrived, 3 * per_burst);
  // The idle port keeps exactly one record block.
  EXPECT_FALSE(link.busy());
  EXPECT_EQ(link.record_blocks(), 1u);
}

}  // namespace
}  // namespace actnet
