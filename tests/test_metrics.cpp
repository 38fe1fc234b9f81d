// Metrics primitives: percentile math, counter wrap/reset semantics,
// registry identity and JSON export, and thread-safety under the native
// pool's real worker threads.
#include "trace/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <limits>
#include <vector>

#include "native/offload_pool.hpp"

namespace cbe::trace {
namespace {

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(Histogram, NearestRankPercentilesOnKnownSamples) {
  // 1..100 in scrambled insertion order: percentile(p) must return the
  // ceil(p)-th smallest, independent of insertion order.
  Histogram h;
  for (int v = 100; v >= 1; --v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90.0), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(200.0), 100.0);
  // Fractional p rounds the rank up: p=0.5 over 100 samples is rank 1.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 2.0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, StatsAndReset) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  h.observe(7.0);  // usable after reset
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 7.0);
}

TEST(Histogram, InterleavedObserveAndPercentile) {
  // The lazy sort must re-arm when new samples arrive after a percentile.
  Histogram h;
  h.observe(10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, OverflowWrapsModulo64Bits) {
  Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  c.add(2);  // max + 2 wraps to 1
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  // Same name, different metric families: distinct objects.
  reg.gauge("x").set(1.0);
  reg.histogram("x").observe(2.0);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 1.0);
  EXPECT_EQ(reg.histogram("x").count(), 1u);
}

TEST(MetricsRegistry, ResetClearsValuesKeepsRegistrations) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(5.0);
  reg.histogram("h").observe(5.0);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

TEST(MetricsRegistry, JsonIsDeterministicAndSorted) {
  MetricsRegistry reg;
  reg.counter("z.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("util").set(0.5);
  reg.histogram("lat").observe(1.0);
  reg.histogram("lat").observe(3.0);
  const std::string j = reg.to_json();
  EXPECT_EQ(j, reg.to_json());  // stable across calls
  // Sorted name order within each family.
  EXPECT_LT(j.find("\"a.count\""), j.find("\"z.count\""));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(j.find("\"p50\""), std::string::npos);
}

TEST(MetricsRegistry, ThreadSafeUnderNativePool) {
  // Hammer one registry from every pool worker: concurrent get-or-create on
  // fresh and shared names plus concurrent observations must neither race
  // nor lose counts.
  MetricsRegistry reg;
  native::OffloadPool pool(4);
  constexpr int kTasks = 64;
  constexpr int kIncrements = 500;
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    futs.push_back(pool.offload([&reg, t] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.counter("shared").add();
        reg.histogram("lat").observe(static_cast<double>(i));
      }
      reg.counter("task." + std::to_string(t % 8)).add();
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kTasks) * kIncrements);
  EXPECT_EQ(reg.histogram("lat").count(),
            static_cast<std::uint64_t>(kTasks) * kIncrements);
  std::uint64_t per_task = 0;
  for (int k = 0; k < 8; ++k) {
    per_task += reg.counter("task." + std::to_string(k)).value();
  }
  EXPECT_EQ(per_task, static_cast<std::uint64_t>(kTasks));
}

}  // namespace
}  // namespace cbe::trace
