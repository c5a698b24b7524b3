#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"

namespace hybrid::obs {
namespace {

/// Restores the runtime flag and clears all global obs state around each
/// test, so tests are order-independent.
class ObsStateGuard {
 public:
  ObsStateGuard() {
    Registry::global().reset();
    Tracer::global().reset();
  }
  ~ObsStateGuard() {
    setEnabled(false);
    Registry::global().reset();
    Tracer::global().reset();
  }
};

TEST(ObsMetrics, CounterAddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetMaxReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.max(2.0);  // smaller: no change
  EXPECT_EQ(g.value(), 3.5);
  g.max(7.25);
  EXPECT_EQ(g.value(), 7.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.numBuckets(), 4u);  // 3 bounds + overflow

  // Bucket i counts bounds[i-1] < v <= bounds[i]: a value exactly on a
  // bound belongs to that bound's bucket, not the next one.
  h.record(0.5);  // bucket 0
  h.record(1.0);  // bucket 0 (== bounds[0])
  h.record(1.5);  // bucket 1
  h.record(2.0);  // bucket 1 (== bounds[1])
  h.record(4.0);  // bucket 2 (== bounds[2])
  h.record(5.0);  // overflow

  EXPECT_EQ(h.bucketCount(0), 2u);
  EXPECT_EQ(h.bucketCount(1), 2u);
  EXPECT_EQ(h.bucketCount(2), 1u);
  EXPECT_EQ(h.bucketCount(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);

  const HistogramData d = h.data();
  EXPECT_EQ(d.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(d.counts, (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(d.count, 6u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucketCount(0), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(ObsMetrics, RegistryCreateOnceWithStableAddresses) {
  ObsStateGuard guard;
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test.c");
  Counter& b = reg.counter("obs_test.c");
  EXPECT_EQ(&a, &b);

  Histogram& h1 = reg.histogram("obs_test.h", {1.0, 2.0});
  // Bounds are only consulted at creation; a second registration with
  // different bounds returns the original histogram unchanged.
  Histogram& h2 = reg.histogram("obs_test.h", {10.0, 20.0, 30.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsMetrics, RegistryResetZeroesButKeepsRegistrations) {
  ObsStateGuard guard;
  Registry& reg = Registry::global();
  reg.counter("obs_reset_test.c").add(5);
  reg.gauge("obs_reset_test.g").set(2.5);
  reg.histogram("obs_reset_test.h", {1.0}).record(0.5);

  reg.reset();

  EXPECT_EQ(reg.counter("obs_reset_test.c").value(), 0u);
  EXPECT_EQ(reg.gauge("obs_reset_test.g").value(), 0.0);
  EXPECT_EQ(reg.histogram("obs_reset_test.h", {}).count(), 0u);
  // Names and bounds survive the reset (registrations live for the process
  // lifetime -- cached references must stay valid).
  bool found = false;
  for (const auto& [name, v] : reg.counterValues()) {
    if (name == "obs_reset_test.c") {
      found = true;
      EXPECT_EQ(v, 0u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(reg.histogram("obs_reset_test.h", {}).bounds(), (std::vector<double>{1.0}));
}

TEST(ObsMetrics, RuntimeFlagToggles) {
  ObsStateGuard guard;
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  setEnabled(true);
  EXPECT_TRUE(enabled());
  setEnabled(false);
  EXPECT_FALSE(enabled());
}

TEST(ObsSpan, TreeStructureIsDeterministic) {
  ObsStateGuard guard;
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  setEnabled(true);

  const auto visit = [] {
    ScopedSpan a("a");
    {
      ScopedSpan b("b");
    }
    {
      ScopedSpan b("b");
    }
    ScopedSpan c("c");
  };

  visit();
  auto spans = Tracer::global().spanValues();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].first, "a");
  EXPECT_EQ(spans[0].second.count, 1u);
  EXPECT_EQ(spans[1].first, "a/b");
  EXPECT_EQ(spans[1].second.count, 2u);
  EXPECT_EQ(spans[2].first, "a/c");
  EXPECT_EQ(spans[2].second.count, 1u);

  // Re-running the same code grows counts, never the structure.
  visit();
  spans = Tracer::global().spanValues();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].second.count, 4u);
}

TEST(ObsSpan, DisabledSpansRecordNothing) {
  ObsStateGuard guard;
  setEnabled(false);
  {
    ScopedSpan s("never");
  }
  EXPECT_TRUE(Tracer::global().spanValues().empty());
}

TEST(ObsSnapshot, JsonRoundTripIsLossless) {
  // A hand-built snapshot exercises every field, including values that
  // need all 17 significant digits.
  Snapshot snap;
  snap.counters = {{"a.events", 123}, {"b.big", 9007199254740993ull}};
  snap.gauges = {{"a.ratio", 2.7182818284590452}, {"a.tiny", 1e-9}, {"z.neg", -0.5}};
  HistogramData h;
  h.bounds = {1.0, 8.0, 64.0};
  h.counts = {1, 0, 1, 1};
  h.count = 3;
  h.sum = 0.5 + 8.0 + 1000.0;
  snap.histograms = {{"a.lat", h}};
  snap.spans = {{"phase", 1, 12345}, {"phase/step", 1, 6789}};

  const std::string json = toJson(snap);
  const auto parsed = fromJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snap);
  // Serialization is canonical: parse + re-serialize is byte-identical.
  EXPECT_EQ(toJson(*parsed), json);
}

TEST(ObsSnapshot, CaptureRoundTripsThroughJson) {
  ObsStateGuard guard;
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  setEnabled(true);

  Registry& reg = Registry::global();
  reg.counter("obs_rt_test.events").add(123);
  reg.gauge("obs_rt_test.ratio").set(2.7182818284590452);
  reg.histogram("obs_rt_test.lat", {1.0, 8.0, 64.0}).record(8.0);
  {
    ScopedSpan outer("obs_rt_phase");
    ScopedSpan inner("step");
  }

  const Snapshot snap = capture();
  const auto parsed = fromJson(toJson(snap));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snap);
}

TEST(ObsSnapshot, SaveLoadRoundTripsThroughAFile) {
  ObsStateGuard guard;
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  setEnabled(true);

  Registry::global().counter("obs_test.events").add(9);
  const Snapshot snap = capture();

  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_snapshot_test.json").string();
  ASSERT_TRUE(saveSnapshot(path, snap));
  const auto loaded = loadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, snap);
}

TEST(ObsSnapshot, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(fromJson("").has_value());
  EXPECT_FALSE(fromJson("not json").has_value());
  EXPECT_FALSE(fromJson("{\"counters\": {").has_value());
}

}  // namespace
}  // namespace hybrid::obs
