#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace meteo::obs {
namespace {

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricRegistry registry;
  Histogram h = registry.histogram("hops", {1.0, 2.0, 4.0});

  // A value exactly on a bound lands in that bound's bucket ("le"
  // semantics): 1.0 -> le_1, 2.0 -> le_2, 4.0 -> le_4.
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  // Between bounds rounds up to the next bound's bucket.
  h.observe(1.5);
  h.observe(3.0);
  // Above the last bound goes to the implicit overflow bucket.
  h.observe(9.0);

  const HistogramData& data = h.data();
  ASSERT_EQ(data.buckets.size(), 4u);
  EXPECT_EQ(data.buckets[0], 1u);  // le_1: {1.0}
  EXPECT_EQ(data.buckets[1], 2u);  // le_2: {1.5, 2.0}
  EXPECT_EQ(data.buckets[2], 2u);  // le_4: {3.0, 4.0}
  EXPECT_EQ(data.buckets[3], 1u);  // le_inf: {9.0}
  EXPECT_EQ(data.count, 6u);
  EXPECT_DOUBLE_EQ(data.sum, 20.5);
  EXPECT_DOUBLE_EQ(data.min(), 1.0);
  EXPECT_DOUBLE_EQ(data.max(), 9.0);
}

TEST(Histogram, EmptyReportsZeroMinMax) {
  MetricRegistry registry;
  const Histogram h = registry.histogram("hops", {1.0, 2.0});
  EXPECT_EQ(h.data().count, 0u);
  EXPECT_DOUBLE_EQ(h.data().min(), 0.0);
  EXPECT_DOUBLE_EQ(h.data().max(), 0.0);
}

TEST(Histogram, BoundlessHistogramKeepsCountSumMinMax) {
  MetricRegistry registry;
  Histogram h = registry.histogram("raw", {});
  h.observe(3.0);
  h.observe(-1.0);
  ASSERT_EQ(h.data().buckets.size(), 1u);  // just the overflow bucket
  EXPECT_EQ(h.data().buckets[0], 2u);
  EXPECT_DOUBLE_EQ(h.data().min(), -1.0);
  EXPECT_DOUBLE_EQ(h.data().max(), 3.0);
}

TEST(Histogram, PresetBucketsAreStrictlyIncreasing) {
  for (const std::vector<double>& preset :
       {hop_buckets(), cost_buckets(), count_buckets()}) {
    ASSERT_FALSE(preset.empty());
    for (std::size_t i = 1; i < preset.size(); ++i) {
      EXPECT_LT(preset[i - 1], preset[i]);
    }
  }
}

TEST(Registry, LabelsNormalizeToOneSeries) {
  MetricRegistry registry;
  Counter a = registry.counter("op.count", {{"op", "locate"}, {"outcome", "ok"}});
  Counter b = registry.counter("op.count", {{"outcome", "ok"}, {"op", "locate"}});
  ++a;
  ++b;
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(
      registry.counter_value("op.count", {{"op", "locate"}, {"outcome", "ok"}}),
      2u);
}

TEST(Registry, CounterTotalSumsAcrossLabelSets) {
  MetricRegistry registry;
  registry.counter("op.count", {{"op", "locate"}, {"outcome", "ok"}}) += 3;
  registry.counter("op.count", {{"op", "locate"}, {"outcome", "partial"}}) += 2;
  registry.counter("op.count", {{"op", "publish"}, {"outcome", "ok"}}) += 5;
  registry.counter("op.messages", {{"op", "locate"}}) += 99;

  EXPECT_EQ(registry.counter_total("op.count"), 10u);
  EXPECT_EQ(registry.counter_total("op.count", {{"op", "locate"}}), 5u);
  EXPECT_EQ(registry.counter_total("op.count", {{"outcome", "ok"}}), 8u);
  EXPECT_EQ(registry.counter_total("op.count", {{"op", "withdraw"}}), 0u);
  EXPECT_EQ(registry.counter_total("absent"), 0u);
}

TEST(Registry, PointLookupsReturnZeroForMissingSeries) {
  const MetricRegistry registry;
  EXPECT_EQ(registry.counter_value("nope"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("nope"), 0.0);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  EXPECT_TRUE(registry.empty());
}

TEST(Registry, GaugeOverwrites) {
  MetricRegistry registry;
  Gauge g = registry.gauge("system.alive_nodes");
  g.set(100.0);
  g.set(97.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("system.alive_nodes"), 97.0);
}

// A registry whose reset() cleared its maps would dangle every handle
// held across repetitions. Here reset() zeroes cells in place and every
// handle stays usable.
TEST(Registry, HandlesSurviveReset) {
  MetricRegistry registry;
  Counter counter = registry.counter("fault.retries");
  Gauge gauge = registry.gauge("system.alive_nodes");
  Histogram histogram = registry.histogram("op.route_hops", {1.0, 4.0});

  counter += 7;
  gauge.set(50.0);
  histogram.observe(2.0);

  registry.reset();

  // Series survive (keys and bucket layout), values are zero.
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.data().count, 0u);
  EXPECT_EQ(histogram.data().upper_bounds.size(), 2u);
  EXPECT_EQ(registry.counters().size(), 1u);

  // The old handles still address the live cells.
  ++counter;
  gauge.set(9.0);
  histogram.observe(8.0);
  EXPECT_EQ(registry.counter_value("fault.retries"), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("system.alive_nodes"), 9.0);
  ASSERT_NE(registry.find_histogram("op.route_hops"), nullptr);
  EXPECT_EQ(registry.find_histogram("op.route_hops")->count, 1u);
  EXPECT_DOUBLE_EQ(registry.find_histogram("op.route_hops")->max(), 8.0);
}

TEST(Registry, RegisteringMoreSeriesKeepsOldHandlesValid) {
  MetricRegistry registry;
  Counter first = registry.counter("a");
  ++first;
  // Map nodes never move: inserting many more series must not disturb
  // the first handle.
  for (int i = 0; i < 100; ++i) {
    registry.counter("series_" + std::to_string(i)) += 1;
  }
  ++first;
  EXPECT_EQ(registry.counter_value("a"), 2u);
}

}  // namespace
}  // namespace meteo::obs
