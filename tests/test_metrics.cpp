// obs::Registry semantics: counters, gauges, histograms, get-or-create
// identity, kind checking, and exactness under concurrent mutation.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"

namespace actnet::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwritesMaxKeepsMaximum) {
  Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.max(5.0);
  g.max(2.0);  // lower than current: ignored
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_FALSE(g.is_callback());
}

TEST(Histogram, BucketsByBitWidth) {
  Histogram h;
  h.add(0);  // bucket 0: {0}
  h.add(1);  // bucket 1: [1, 2)
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 0u);
}

TEST(Histogram, BucketFloors) {
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(10), 512u);
  EXPECT_EQ(Histogram::bucket_floor(64), std::uint64_t{1} << 63);
}

TEST(Histogram, QuantileUpperBoundIsMonotone) {
  Histogram h;
  EXPECT_EQ(h.quantile_upper_bound(0.99), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.add(5);     // bucket 3, upper bound 7
  for (int i = 0; i < 10; ++i) h.add(1000);  // bucket 10, upper bound 1023
  const auto p50 = h.quantile_upper_bound(0.5);
  const auto p99 = h.quantile_upper_bound(0.99);
  EXPECT_EQ(p50, 7u);
  EXPECT_EQ(p99, 1023u);
  EXPECT_LE(p50, p99);
}

TEST(Registry, GetOrCreateReturnsStableIdentity) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("y.count");
  EXPECT_NE(&a, &c);
  // Growing the registry must not move existing handles.
  for (int i = 0; i < 100; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&reg.counter("x.count"), &a);
  EXPECT_EQ(reg.size(), 102u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), Error);
  EXPECT_THROW(reg.histogram("metric"), Error);
  reg.histogram("hist");
  EXPECT_THROW(reg.counter("hist"), Error);
}

TEST(Registry, CallbackGaugeEvaluatesAtReadTime) {
  Registry reg;
  int calls = 0;
  Gauge& g = reg.callback_gauge("cb", [&calls] {
    ++calls;
    return 7.0;
  });
  EXPECT_TRUE(g.is_callback());
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_EQ(calls, 2);
  // Re-registering the same name keeps the first callback.
  Gauge& again = reg.callback_gauge("cb", [] { return -1.0; });
  EXPECT_EQ(&again, &g);
  EXPECT_DOUBLE_EQ(again.value(), 7.0);
}

TEST(Registry, SnapshotIsSortedAndTyped) {
  Registry reg;
  reg.counter("b.count").inc(3);
  reg.gauge("a.level").set(2.5);
  reg.histogram("c.hist").add(100);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.level");
  EXPECT_EQ(samples[0].kind, 'g');
  EXPECT_DOUBLE_EQ(samples[0].value, 2.5);
  EXPECT_EQ(samples[1].name, "b.count");
  EXPECT_EQ(samples[1].kind, 'c');
  EXPECT_DOUBLE_EQ(samples[1].value, 3.0);
  EXPECT_EQ(samples[2].name, "c.hist");
  EXPECT_EQ(samples[2].kind, 'h');
  EXPECT_EQ(samples[2].count, 1u);
}

TEST(Registry, WriteJsonNamesEveryMetric) {
  Registry reg;
  reg.counter("events").inc(5);
  reg.histogram("latency").add(9);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
}

TEST(LocalHistogram, MergesExactlyIntoHistogram) {
  LocalHistogram a;
  LocalHistogram b;
  Histogram direct;
  for (std::uint64_t v : {0u, 1u, 3u, 4u, 1000u}) {
    a.add(v);
    direct.add(v);
  }
  for (std::uint64_t v : {7u, 70u}) {
    b.add(v);
    direct.add(v);
  }
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(b.min(), 7u);
  EXPECT_EQ(LocalHistogram{}.min(), 0u);  // empty
  LocalHistogram c;
  c.merge(b);
  EXPECT_EQ(c.min(), 7u);
  a.merge(b);
  EXPECT_EQ(a.count(), 7u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.min(), 0u);
  Histogram merged;
  merged.merge(a);
  merged.merge(LocalHistogram{});  // empty: no-op
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.sum(), direct.sum());
  for (int i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(merged.bucket(i), direct.bucket(i)) << "bucket " << i;
}

// Run under `ctest -L tsan` with -DACTNET_SANITIZE=thread: campaign workers
// mutate shared counters concurrently and totals must stay exact.
TEST(Registry, ConcurrentMutationIsExact) {
  Registry reg;
  Counter& c = reg.counter("shared.count");
  Histogram& h = reg.histogram("shared.hist");
  Gauge& g = reg.gauge("shared.peak");
  constexpr int kThreads = 4;
  constexpr int kOps = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c.inc();
        h.add(static_cast<std::uint64_t>(i % 16));
        g.max(static_cast<double>(t * kOps + i));
        // Concurrent get-or-create of the same name must stay safe too.
        if (i % 1024 == 0) reg.counter("shared.count").inc(0);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kOps - 1));
}

}  // namespace
}  // namespace actnet::obs
