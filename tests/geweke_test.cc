#include "src/mcmc/geweke.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/rng.h"

namespace mto {
namespace {

std::vector<double> IidNormalTrace(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> trace(n);
  for (double& x : trace) x = rng.Normal();
  return trace;
}

TEST(GewekeZTest, SmallForStationarySequence) {
  auto trace = IidNormalTrace(5000, 1);
  EXPECT_LT(GewekeZ(trace), 0.1);
}

TEST(GewekeZTest, LargeForTrendingSequence) {
  std::vector<double> trace(2000);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i] = static_cast<double>(i);  // strong drift
  }
  EXPECT_GT(GewekeZ(trace), 1.0);
}

TEST(GewekeZTest, EmptyWindowsGiveInfinity) {
  std::vector<double> tiny{1.0, 2.0};
  // first_frac * 2 = 0 -> window A empty.
  EXPECT_TRUE(std::isinf(GewekeZ(tiny)));
  EXPECT_TRUE(std::isinf(GewekeZ(std::vector<double>{})));
}

TEST(GewekeZTest, ConstantSequenceIsZero) {
  std::vector<double> trace(500, 3.0);
  EXPECT_DOUBLE_EQ(GewekeZ(trace), 0.0);
}

TEST(GewekeZTest, ConstantButDifferentWindowsIsInfinite) {
  std::vector<double> trace(100, 0.0);
  for (size_t i = 50; i < 100; ++i) trace[i] = 5.0;
  // Window A all zeros, window B all fives, both zero variance.
  EXPECT_TRUE(std::isinf(GewekeZ(trace)));
}

TEST(GewekeZTest, StandardErrorVariantSmallerDenominator) {
  auto trace = IidNormalTrace(2000, 2);
  GewekeOptions se;
  se.use_standard_error = true;
  // Dividing variances by window lengths shrinks the denominator, so the
  // SE-variant Z is larger for the same trace.
  EXPECT_GT(GewekeZ(trace, se), GewekeZ(trace));
}

TEST(GewekeZTest, WindowFractionsRespected) {
  // Drift confined to the first 5% of the trace: the default 10% window A
  // sees it and Z blows up relative to the clean trace. (For a half-window
  // offset d the paper-style Z tends to 1 from below as d grows — the
  // window variance grows with the offset too — so compare against the
  // clean baseline rather than an absolute bound.)
  auto clean = IidNormalTrace(10000, 3);
  auto drifted = clean;
  for (size_t i = 0; i < 500; ++i) drifted[i] += 50.0;
  double z_clean = GewekeZ(clean);
  double z_drift = GewekeZ(drifted);
  EXPECT_GT(z_drift, 0.5);
  EXPECT_GT(z_drift, 10.0 * z_clean);
}

TEST(GewekeMonitorTest, ConvergesOnStationaryStream) {
  GewekeMonitor monitor(0.1, 200, 50);
  Rng rng(4);
  bool converged = false;
  for (int i = 0; i < 20000 && !converged; ++i) {
    monitor.Add(rng.Normal());
    converged = monitor.Converged();
  }
  EXPECT_TRUE(converged);
  EXPECT_LE(monitor.last_z(), 0.1);
}

TEST(GewekeMonitorTest, DoesNotConvergeOnDrift) {
  GewekeMonitor monitor(0.05, 200, 50);
  for (int i = 0; i < 5000; ++i) {
    monitor.Add(static_cast<double>(i));
    EXPECT_FALSE(monitor.Converged());
  }
}

TEST(GewekeMonitorTest, RespectsMinLength) {
  GewekeMonitor monitor(10.0, 1000, 1);  // huge threshold: converges ASAP
  for (int i = 0; i < 999; ++i) {
    monitor.Add(0.0);
    EXPECT_FALSE(monitor.Converged()) << "converged before min_length";
  }
  monitor.Add(0.0);
  EXPECT_TRUE(monitor.Converged());
}

TEST(GewekeMonitorTest, StickyOnceConverged) {
  GewekeMonitor monitor(0.5, 10, 1);
  for (int i = 0; i < 100; ++i) monitor.Add(1.0);
  ASSERT_TRUE(monitor.Converged());
  // Massive drift afterwards does not un-converge the monitor.
  for (int i = 0; i < 100; ++i) monitor.Add(1000.0);
  EXPECT_TRUE(monitor.Converged());
}

TEST(GewekeMonitorTest, AddAllChecksAfterEveryValue) {
  // Flat at the first check (n = min_length), drifting by the span's end:
  // a monitor that checked once per span would miss the passing check.
  constexpr size_t kMinLength = 20;
  constexpr double kThreshold = 0.5;
  std::vector<double> stream(kMinLength, 1.0);
  for (int i = 1; i <= 80; ++i) stream.push_back(1.0 + i);
  const std::span<const double> all(stream);
  ASSERT_LE(GewekeZ(all.first(kMinLength)), kThreshold);
  ASSERT_GT(GewekeZ(all), kThreshold);

  GewekeMonitor whole(kThreshold, kMinLength, 50);
  EXPECT_TRUE(whole.AddAll(all));
  EXPECT_EQ(whole.length(), stream.size());

  // Any split of the stream lands on the same verdict.
  GewekeMonitor split(kThreshold, kMinLength, 50);
  EXPECT_FALSE(split.AddAll(all.first(kMinLength - 1)));
  EXPECT_TRUE(split.AddAll(all.subspan(kMinLength - 1)));
  EXPECT_EQ(split.last_z(), whole.last_z());
}

TEST(GewekeMonitorTest, ResetClearsTrace) {
  GewekeMonitor monitor(0.5, 10, 1);
  for (int i = 0; i < 50; ++i) monitor.Add(1.0);
  ASSERT_TRUE(monitor.Converged());
  monitor.Reset();
  EXPECT_FALSE(monitor.Converged());
  EXPECT_EQ(monitor.length(), 0u);
}

TEST(GewekeMonitorTest, TraceAccessible) {
  GewekeMonitor monitor;
  monitor.Add(1.0);
  monitor.Add(2.0);
  ASSERT_EQ(monitor.trace().size(), 2u);
  EXPECT_DOUBLE_EQ(monitor.trace()[1], 2.0);
}

}  // namespace
}  // namespace mto
