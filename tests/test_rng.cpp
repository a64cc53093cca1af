// RNG determinism, stream independence, and distribution moments.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace actnet {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitDoesNotPerturbParentStream) {
  Rng a(7), b(7);
  (void)b.split();
  (void)b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng parent(7);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1() == c2()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(9), p2(9);
  Rng c1 = p1.split();
  Rng c2 = p2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++counts[v - 10];
  }
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_NEAR(s.variance(), 9.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(2.0, 0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(Rng, LogNormalByMomentsMatchesRequestedMoments) {
  Rng rng(8);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal_by_moments(1.5, 0.6));
  EXPECT_NEAR(s.mean(), 1.5, 0.03);
  EXPECT_NEAR(s.stddev(), 0.6, 0.05);
}

TEST(Rng, LogNormalZeroStddevIsConstant) {
  Rng rng(8);
  EXPECT_DOUBLE_EQ(rng.lognormal_by_moments(2.0, 0.0), 2.0);
}

TEST(Rng, LognormalFromParamsMatchesMomentsBitForBit) {
  for (const auto& [mean, stddev] :
       {std::pair{200.0, 120.0}, std::pair{1.5, 0.6}, std::pair{0.2, 3.0}}) {
    const Rng::LognormalParams lp = Rng::lognormal_params(mean, stddev);
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      Rng a(seed), b(seed);
      const double x = a.lognormal_by_moments(mean, stddev);
      const double y = b.lognormal(lp.mu, lp.sigma);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0) << "seed " << seed;
      ASSERT_EQ(a(), b());  // the same number of draws consumed
    }
  }
}

TEST(Rng, LogNormalIsPositive) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i)
    ASSERT_GT(rng.lognormal_by_moments(0.2, 1.0), 0.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.chance(0.02)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.02, 0.003);
}

}  // namespace
}  // namespace actnet
