// Discrete-event engine: ordering, determinism, budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace actnet::sim {
namespace {

TEST(Engine, StartsAtZeroAndAdvances) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  Tick seen = -1;
  e.schedule_at(100, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(300, [&] { order.push_back(3); });
  e.schedule_at(100, [&] { order.push_back(1); });
  e.schedule_at(200, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTickBurstKeepsInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i)
    e.schedule_at(1'000, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleNowRunsAfterQueuedSameTimeEvents) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.schedule_now([&] { order.push_back(3); });
  });
  e.schedule_at(10, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTickEventsRunInCreationTickOrder) {
  // Events at one tick run in the order of the ticks they were created at;
  // an event scheduled as of an earlier tick overtakes same-tick events
  // created after that tick, and one as of a later tick falls behind them.
  // Among events created at one tick, places decide: places taken before
  // an event was scheduled sort ahead of it, in their own order.
  Engine e;
  std::vector<int> order;
  std::uint64_t early = 0;
  e.schedule_at(10, [&] {
    early = e.take_places(2);
    e.schedule_at(100, [&] { order.push_back(4); });  // created at 10
    e.schedule_as_of(60, e.take_places(), 100, [&] { order.push_back(7); });
  });
  e.schedule_at(50, [&] {
    e.schedule_at(100, [&] { order.push_back(5); });  // created at 50
    e.schedule_as_of(5, e.take_places(), 100, [&] { order.push_back(1); });
    e.schedule_as_of(10, early + 1, 100, [&] { order.push_back(3); });
    e.schedule_as_of(10, early, 100, [&] { order.push_back(2); });
    // Tie on both ticks: the place, taken after event 5's, decides.
    e.schedule_as_of(50, e.take_places(), 100, [&] { order.push_back(6); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, CreationOrderMatchesFifoForOrdinaryScheduling) {
  // Scheduled the ordinary way, creation ticks follow the insertion
  // sequence, so the (time, creation tick, sequence) order is plain
  // (time, sequence) FIFO — long delays included, where the stored lag
  // saturates.
  Engine e;
  std::vector<int> order;
  const Tick far = Tick{1} << 40;  // beyond a 32-bit lag
  e.schedule_at(far, [&] { order.push_back(0); });
  e.schedule_at(7, [&] {
    e.schedule_at(far, [&] { order.push_back(1); });
    e.schedule_in(far - 7, [&] { order.push_back(2); });
  });
  e.schedule_at(9, [&] { e.schedule_at(far, [&] { order.push_back(3); }); });
  e.schedule_at(far - 3,
                [&] { e.schedule_in(3, [&] { order.push_back(4); }); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CancellableAsOfKeepsItsPlace) {
  Engine e;
  std::vector<int> order;
  e.run_until(10);
  e.schedule_at(20, [&] { order.push_back(1); });  // created at 10
  const std::uint64_t place = e.take_places();
  const Engine::CancelToken late =
      e.schedule_cancellable_as_of(15, place, 20, [&] { order.push_back(9); });
  const Engine::CancelToken early =
      e.schedule_cancellable_as_of(2, place, 20, [&] { order.push_back(0); });
  EXPECT_TRUE(e.cancel(late));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_FALSE(e.cancel(early));
  EXPECT_THROW(e.schedule_as_of(e.now() + 10, place, e.now() + 5, [] {}),
               Error);
  EXPECT_THROW(e.schedule_cancellable_as_of(e.now() + 10, place, e.now() + 5,
                                            [] {}),
               Error);
  // A place not yet taken is refused.
  EXPECT_THROW(e.schedule_as_of(e.now(), e.take_places() + 1, e.now() + 1,
                                [] {}),
               Error);
}

TEST(Engine, OrderVsCurrentHasThreeOutcomes) {
  // Inside an event created at 40 and running at 100: earlier ticks and
  // earlier creation ticks ran before it, later ones run after, and the
  // same tick created at the same tick is a tie only places can break.
  // The running event's key is its own (its place included).
  Engine e;
  std::vector<Engine::Order> got;
  std::uint64_t running_place = 0;
  e.schedule_at(40, [&] {
    e.schedule_at(100, [&] {
      running_place = e.current().seq;
      got = {e.order_vs_current(99, 99), e.order_vs_current(100, 39),
             e.order_vs_current(100, 40), e.order_vs_current(100, 41),
             e.order_vs_current(101, 0)};
    });
  });
  e.run();
  using O = Engine::Order;
  EXPECT_EQ(got, (std::vector<O>{O::kBefore, O::kBefore, O::kTie, O::kAfter,
                                 O::kAfter}));
  EXPECT_EQ(running_place, 1u);  // the second place taken
  // Outside a callback the engine stands after every event of now().
  EXPECT_EQ(e.order_vs_current(100, 40), O::kBefore);
  EXPECT_EQ(e.order_vs_current(100, 100), O::kTie);
  EXPECT_GT(e.current().seq, running_place);
  EXPECT_EQ(e.order_vs_current(101, 100), O::kAfter);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_in(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, RunUntilStopsAndAdvancesClock) {
  Engine e;
  int count = 0;
  for (Tick t = 0; t < 100; t += 10) e.schedule_at(t, [&] { ++count; });
  const auto n = e.run_until(45);
  EXPECT_EQ(n, 5u);   // t = 0,10,20,30,40
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 45);
  EXPECT_EQ(e.pending(), 5u);
  e.run_until(1000);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, RunUntilIncludesBoundaryInstant) {
  Engine e;
  bool ran = false;
  e.schedule_at(50, [&] { ran = true; });
  e.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(Engine, PastSchedulingThrows) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5, [] {}), Error);
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_in(-1, [] {}), Error);
}

TEST(Engine, EventBudgetBoundsEachCallAndTripsAfterBudgetPlusOne) {
  // Exact semantics: the budget bounds each run()/run_until() call, not
  // the engine's lifetime, and the throw fires after the (budget+1)-th
  // event of the call has executed.
  Engine e;
  e.set_event_budget(10);
  std::function<void()> chain = [&] { e.schedule_in(1, [&] { chain(); }); };
  chain();  // one event per tick from t=1 on
  EXPECT_EQ(e.run_until(9), 9u);
  EXPECT_EQ(e.run_until(19), 10u);  // exactly the budget: no throw
  EXPECT_EQ(e.events_processed(), 19u);
  EXPECT_THROW(e.run(), Error);
  EXPECT_EQ(e.events_processed(), 19u + 11u);
}

TEST(Engine, CountsProcessedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(Engine, CancelledEventNeverRuns) {
  Engine e;
  int ran = 0;
  const auto tok = e.schedule_cancellable_at(100, [&ran] { ++ran; });
  e.schedule_at(100, [&ran] { ran += 10; });
  EXPECT_TRUE(e.cancel(tok));
  e.run();
  EXPECT_EQ(ran, 10);  // only the plain event
  EXPECT_EQ(e.events_cancelled(), 1u);
  // A cancelled tombstone is skipped, not processed.
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  int ran = 0;
  const auto tok = e.schedule_cancellable_at(5, [&ran] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(e.cancel(tok));
  EXPECT_FALSE(e.cancel(tok));  // idempotent
  EXPECT_EQ(e.events_cancelled(), 0u);
}

TEST(Engine, StaleTokenDoesNotCancelSlotReuser) {
  Engine e;
  int ran = 0;
  const auto stale = e.schedule_cancellable_at(5, [&ran] { ran += 1; });
  e.run();  // fires; the slot returns to the free list
  // The next event reuses the slot; the stale token must not kill it.
  e.schedule_cancellable_at(10, [&ran] { ran += 10; });
  EXPECT_FALSE(e.cancel(stale));
  e.run();
  EXPECT_EQ(ran, 11);
  // Events sharing a place reuse each other's slots too: a token is
  // checked against its slot's generation, not the place.
  const std::uint64_t place = e.take_places();
  const auto fired = e.schedule_cancellable_as_of(10, place, 20,
                                                  [&ran] { ran += 100; });
  e.run();
  const auto live = e.schedule_cancellable_as_of(10, place, 30,
                                                 [&ran] { ran += 1000; });
  ASSERT_EQ(live.slot, fired.slot);
  EXPECT_FALSE(e.cancel(fired));
  e.run();
  EXPECT_EQ(ran, 1111);
}

TEST(Engine, DoubleCancelAndInvalidTokenAreSafe) {
  Engine e;
  const auto tok = e.schedule_cancellable_at(5, [] {});
  EXPECT_TRUE(e.cancel(tok));
  EXPECT_FALSE(e.cancel(tok));
  EXPECT_FALSE(e.cancel(Engine::CancelToken{}));
  e.run();
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancelledEventsDoNotCountTowardBudget) {
  Engine e;
  e.set_event_budget(5);
  for (int i = 0; i < 20; ++i) {
    const auto tok = e.schedule_cancellable_at(i, [] {});
    e.cancel(tok);
  }
  for (int i = 0; i < 5; ++i) e.schedule_at(100 + i, [] {});
  e.run();  // 20 tombstones + 5 real events under a budget of 5
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_EQ(e.events_cancelled(), 20u);
}

TEST(Engine, StressManyEventsStayOrdered) {
  Engine e;
  Tick last = -1;
  bool ordered = true;
  for (int i = 0; i < 100000; ++i) {
    const Tick t = (i * 7919) % 100000;
    e.schedule_at(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  e.run();
  EXPECT_TRUE(ordered);
}

// The engine publishes its queue high-water mark when destroyed; the
// published number must equal the largest pending() ever observed, with
// cancelled tombstones still counting as queued.
TEST(Engine, PublishedHeapPeakIsMaxPending) {
  obs::Gauge& peak = obs::default_registry().gauge("sim.engine.heap_peak");
  obs::Counter& scheduled =
      obs::default_registry().counter("sim.engine.events_scheduled");
  obs::Counter& executed =
      obs::default_registry().counter("sim.engine.events_executed");
  peak.set(0.0);  // a process-wide max: clear what earlier tests published
  const std::uint64_t scheduled0 = scheduled.value();
  const std::uint64_t executed0 = executed.value();
  std::size_t max_pending = 0;
  std::uint64_t ran = 0;
  {
    Engine e;
    const auto note = [&] { max_pending = std::max(max_pending, e.pending()); };
    std::vector<Engine::CancelToken> tokens;
    for (int round = 0; round < 4; ++round) {
      const Tick base = e.now();
      for (int i = 0; i < 20 + 7 * round; ++i) {
        tokens.push_back(e.schedule_cancellable_at(base + 1 + i % 9, [&] {
          // Events that schedule more events while the queue drains.
          e.schedule_in(3, [&] { note(); });
          note();
        }));
        note();
      }
      for (std::size_t i = 0; i < tokens.size(); i += 3) e.cancel(tokens[i]);
      tokens.clear();
      ran += e.run_until(base + 5);  // partial drain, then refill
      note();
    }
    ran += e.run();
  }
  EXPECT_GT(max_pending, 0u);
  EXPECT_EQ(peak.value(), static_cast<double>(max_pending));
  EXPECT_EQ(executed.value() - executed0, ran);
  EXPECT_GT(scheduled.value() - scheduled0, ran);  // cancelled never ran
}

}  // namespace
}  // namespace actnet::sim
