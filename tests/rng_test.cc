#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace mto {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 60);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(uint64_t{17}), 17u);
  }
}

TEST(RngTest, UniformIntBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(uint64_t{1}), 0u);
}

TEST(RngTest, UniformIntZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.UniformInt(uint64_t{0}), std::invalid_argument);
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntBadRangeThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.UniformInt(int64_t{5}, int64_t{4}), std::invalid_argument);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(10, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    ++counts[rng.UniformInt(uint64_t{10})];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 10, kTrials / 10 * 0.1);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(10);
  double sum = 0.0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / kTrials, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kTrials), 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(8);
  double sum = 0.0, sum2 = 0.0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kTrials, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(18);
  double sum = 0.0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / kTrials, 10.0, 0.1);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, GeometricMean) {
  Rng rng(22);
  double sum = 0.0;
  const int kTrials = 100000;
  const double p = 0.25;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(rng.Geometric(p));
  }
  // Mean of failures-before-success geometric is (1-p)/p = 3.
  EXPECT_NEAR(sum / kTrials, 3.0, 0.1);
}

TEST(RngTest, GeometricPOneIsZero) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Geometric(1.0), 0u);
}

TEST(RngTest, GeometricBadPThrows) {
  Rng rng(23);
  EXPECT_THROW(rng.Geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.Geometric(1.5), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(33);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(34);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    auto s = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 10u);
    for (size_t x : s) EXPECT_LT(x, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(45);
  auto s = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementTooManyThrows) {
  Rng rng(46);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), std::invalid_argument);
}

TEST(RngTest, SampleWithoutReplacementUnbiased) {
  Rng rng(47);
  std::vector<int> counts(6, 0);
  const int kTrials = 60000;
  for (int t = 0; t < kTrials; ++t) {
    for (size_t x : rng.SampleWithoutReplacement(6, 2)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 3, kTrials / 3 * 0.05);
  }
}

TEST(RngTest, SaveRestoreStateRoundTripsExactly) {
  Rng rng(0xFEED);
  for (int i = 0; i < 17; ++i) rng.Next();  // advance off the seed state
  const auto state = rng.SaveState();
  std::vector<uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.Next());

  Rng restored(12345);  // arbitrary different state
  restored.RestoreState(state);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(restored.Next(), expected[i]);

  // Restoring mid-stream resumes the identical continuation.
  rng.RestoreState(state);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.Next(), expected[i]);
}

TEST(RngTest, RestoreStateRejectsAllZero) {
  Rng rng(1);
  EXPECT_THROW(rng.RestoreState({0, 0, 0, 0}), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == child2.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkedStreamsAreStatisticallyDecorrelated) {
  // Per-walker streams must not trail each other: Pearson correlation of
  // the raw uniforms across 16 pairs of sibling forks stays small.
  Rng parent(0xC0FFEE);
  const size_t kN = 4096;
  for (uint64_t pair = 0; pair < 32; pair += 2) {
    Rng a = parent.Fork(pair);
    Rng b = parent.Fork(pair + 1);
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (size_t i = 0; i < kN; ++i) {
      const double x = a.UniformDouble();
      const double y = b.UniformDouble();
      sx += x;
      sy += y;
      sxx += x * x;
      syy += y * y;
      sxy += x * y;
    }
    const double n = static_cast<double>(kN);
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    EXPECT_LT(std::abs(cov / std::sqrt(vx * vy)), 0.08)
        << "streams " << pair << "," << pair + 1;
  }
}

}  // namespace
}  // namespace mto
