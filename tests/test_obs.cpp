// Tests for the hare::obs telemetry subsystem: span recording and nesting,
// thread-safety of per-thread rings under the shared pool, metric
// semantics (histogram bucket edges, counter wraparound), and the Chrome
// trace_event JSON exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hare::obs {
namespace {

/// Reset the global tracer and detach the log sink between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

std::vector<TraceEvent> all_events() {
  std::vector<TraceEvent> events;
  for (const auto& ring : Tracer::instance().rings()) {
    auto batch = ring->snapshot();
    events.insert(events.end(), batch.begin(), batch.end());
  }
  return events;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    HARE_SPAN("test", "test.disabled");
    HARE_SPAN_ARG("test", "test.disabled_arg", "x", 42);
  }
  EXPECT_TRUE(all_events().empty());
}

TEST_F(ObsTest, SpansNestAndCarryArgs) {
  Tracer::instance().enable();
  {
    HARE_SPAN("test", "test.outer");
    {
      HARE_SPAN_ARG("test", "test.inner", "round", 3);
    }
  }
  Tracer::instance().disable();

  auto events = all_events();
  ASSERT_EQ(events.size(), 2u);
  // Rings record at scope exit, so the inner span lands first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_STREQ(inner.category, "test");
  ASSERT_NE(inner.arg_name, nullptr);
  EXPECT_STREQ(inner.arg_name, "round");
  EXPECT_DOUBLE_EQ(inner.arg_value, 3.0);
  // Containment: outer strictly encloses inner.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST_F(ObsTest, SpanEndIsIdempotent) {
  Tracer::instance().enable();
  {
    Span span("test", "test.early_end");
    span.end();
    span.end();  // second end must not record again
  }                // destructor must not record either
  Tracer::instance().disable();
  EXPECT_EQ(all_events().size(), 1u);
}

TEST_F(ObsTest, InstantEventsKeepDetailText) {
  Tracer::instance().enable();
  instant("test", "test.marker", "hello world");
  Tracer::instance().disable();

  auto events = all_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, Phase::Instant);
  EXPECT_EQ(events[0].detail, "hello world");
  EXPECT_EQ(events[0].start_ns, events[0].end_ns);
}

TEST_F(ObsTest, RingOverflowCountsDrops) {
  Tracer::instance().set_ring_capacity(8);
  Tracer::instance().enable();
  for (int i = 0; i < 20; ++i) {
    HARE_SPAN("test", "test.overflow");
  }
  Tracer::instance().disable();

  auto rings = Tracer::instance().rings();
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0]->snapshot().size(), 8u);
  EXPECT_EQ(rings[0]->dropped(), 12u);
  Tracer::instance().set_ring_capacity(1u << 16);
}

TEST_F(ObsTest, ConcurrentSpansUnderSharedPool) {
  Tracer::instance().enable();
  constexpr std::size_t kIterations = 256;
  std::atomic<std::size_t> ran{0};
  common::shared_pool().parallel_for_each(kIterations, [&](std::size_t i) {
    HARE_SPAN("test", "test.pool_outer");
    {
      HARE_SPAN_ARG("test", "test.pool_inner", "i", i);
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  Tracer::instance().disable();

  EXPECT_EQ(ran.load(), kIterations);
  // Every iteration recorded exactly two spans; none dropped (rings are
  // far larger than the per-thread share of 512 events).
  std::size_t total = 0;
  for (const auto& ring : Tracer::instance().rings()) {
    EXPECT_EQ(ring->dropped(), 0u);
    auto events = ring->snapshot();
    total += events.size();
    for (const auto& event : events) {
      EXPECT_STREQ(event.category, "test");
      EXPECT_LE(event.start_ns, event.end_ns);
    }
  }
  EXPECT_EQ(total, 2 * kIterations);
  // Thread ids are unique across rings.
  std::vector<std::uint32_t> tids;
  for (const auto& ring : Tracer::instance().rings()) {
    tids.push_back(ring->tid());
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::adjacent_find(tids.begin(), tids.end()), tids.end());
}

TEST_F(ObsTest, CounterWrapsModulo64Bits) {
  Counter counter;
  counter.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(counter.value(), std::numeric_limits<std::uint64_t>::max());
  counter.add(2);  // wraps: max + 2 == 1 (mod 2^64)
  EXPECT_EQ(counter.value(), 1u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeTracksAddAndSet) {
  Gauge gauge;
  gauge.add(3.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.set(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  Histogram histogram({1.0, 10.0});
  histogram.record(0.5);   // <= 1     -> bucket 0
  histogram.record(1.0);   // == bound -> bucket 0 (inclusive upper bound)
  histogram.record(1.5);   // <= 10    -> bucket 1
  histogram.record(10.0);  // == bound -> bucket 1
  histogram.record(11.0);  // > 10     -> overflow

  const auto counts = histogram.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 11.0);

  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  for (auto c : histogram.counts()) EXPECT_EQ(c, 0u);
}

TEST_F(ObsTest, LatencyBoundsAreStrictlyAscending) {
  const auto bounds = latency_bounds_us();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e7);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end()), bounds.end());
  // Bounded relative error: a bucket-bound percentile overstates the true
  // value by at most the step ratio.
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i] / bounds[i - 1], 1.06) << "bound " << i;
  }
}

TEST_F(ObsTest, QuantileUpperBoundUsesNearestRank) {
  // Sample k (1-based) lands in bucket k, whose bound is k: the p99 bound
  // is then exactly the nearest rank ceil(0.99 N).
  const auto p99_of = [](std::uint64_t n) {
    std::vector<double> bounds;
    for (std::uint64_t k = 1; k <= n; ++k) {
      bounds.push_back(static_cast<double>(k));
    }
    Histogram histogram(bounds);
    for (std::uint64_t k = 1; k <= n; ++k) {
      histogram.record(static_cast<double>(k));
    }
    return histogram.quantile_upper_bound(99, 100);
  };
  EXPECT_DOUBLE_EQ(p99_of(1), 1.0);
  EXPECT_DOUBLE_EQ(p99_of(99), 99.0);    // ceil(98.01)
  EXPECT_DOUBLE_EQ(p99_of(100), 99.0);   // not the maximum
  EXPECT_DOUBLE_EQ(p99_of(101), 100.0);  // ceil(99.99)

  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile_upper_bound(99, 100), 0.0);
  Histogram overflow({1.0});
  overflow.record(5.0);
  EXPECT_TRUE(std::isinf(overflow.quantile_upper_bound(99, 100)));
}

TEST_F(ObsTest, RegistryHandsOutStableReferences) {
  Counter& a = counter("test.stable_counter");
  Counter& b = counter("test.stable_counter");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);

  Histogram& h = histogram("test.stable_hist", {1.0, 2.0});
  // Second lookup ignores new bounds; the original instrument survives.
  Histogram& h2 = histogram("test.stable_hist", {99.0});
  EXPECT_EQ(&h, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);

  Registry::instance().reset();
  EXPECT_EQ(b.value(), 0u);  // cached refs survive reset
}

TEST_F(ObsTest, MetricsJsonSnapshotIsWellFormed) {
  counter("test.json_counter").add(3);
  gauge("test.json_gauge").set(1.5);
  histogram("test.json_hist", {1.0}).record(0.5);

  std::ostringstream out;
  Registry::instance().write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
}

// Golden-structure check on the Chrome trace exporter: a deterministic set
// of spans must produce metadata records, complete ("X") events with
// microsecond timestamps, and matched B/E phases (we emit none, so both
// counts are zero).
TEST_F(ObsTest, ChromeTraceExportGoldenStructure) {
  Tracer::instance().enable();
  Tracer::instance().set_thread_name("obs-test-main");
  {
    HARE_SPAN("planner", "planner.golden_outer");
    {
      HARE_SPAN_ARG("planner", "planner.golden_inner", "round", 1);
    }
  }
  instant("log", "log.info", "golden \"quoted\" text\n");
  Tracer::instance().disable();

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  // One M (thread_name) record, two X spans, one i instant.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"M\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"i\""), 1u);
  // B/E pairs must be matched; this exporter emits complete events only.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""),
            count_occurrences(json, "\"ph\": \"E\""));
  EXPECT_NE(json.find("\"obs-test-main\""), std::string::npos);
  EXPECT_NE(json.find("\"planner.golden_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"round\": 1"), std::string::npos);
  // The instant event's text is escaped, not emitted raw.
  EXPECT_NE(json.find("golden \\\"quoted\\\" text\\n"), std::string::npos);
  EXPECT_EQ(json.find("golden \"quoted\""), std::string::npos);
  // Every event carries ts/pid/tid; X events carry dur.
  const std::size_t events =
      count_occurrences(json, "\"ph\": \"M\"") +
      count_occurrences(json, "\"ph\": \"X\"") +
      count_occurrences(json, "\"ph\": \"i\"");
  EXPECT_EQ(count_occurrences(json, "\"pid\":"), events);
  EXPECT_EQ(count_occurrences(json, "\"tid\":"), events);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 2u);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
}

TEST_F(ObsTest, ParseLogLevelAcceptsNamesAndDigits) {
  using common::LogLevel;
  using common::parse_log_level;
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("3"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
}

TEST_F(ObsTest, LogRecordsMirrorIntoTraceWhenEnabled) {
  auto& logger = common::Logger::instance();
  const common::LogLevel saved = logger.level();
  logger.set_level(common::LogLevel::Info);

  common::log_info("before tracing");  // sink not installed yet
  Tracer::instance().enable();
  common::log_info("traced record ", 42);
  common::log_debug("below level, suppressed");
  Tracer::instance().disable();
  common::log_info("after tracing");  // sink removed again

  logger.set_level(saved);

  auto events = all_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, Phase::Instant);
  EXPECT_STREQ(events[0].name, "log.info");
  EXPECT_STREQ(events[0].category, "log");
  EXPECT_EQ(events[0].detail, "traced record 42");
}

TEST_F(ObsTest, FlameSummaryMergesCallPaths) {
  Tracer::instance().enable();
  for (int i = 0; i < 3; ++i) {
    HARE_SPAN("test", "test.flame_root");
    {
      HARE_SPAN("test", "test.flame_leaf");
    }
  }
  Tracer::instance().disable();

  const std::string summary = flame_summary();
  EXPECT_NE(summary.find("test.flame_root"), std::string::npos);
  EXPECT_NE(summary.find("test.flame_root;test.flame_leaf"),
            std::string::npos);
  // Nothing wrapped, so nothing is reported lost.
  EXPECT_EQ(summary.find("obs.dropped_events"), std::string::npos);
}

TEST_F(ObsTest, FlameSummaryReportsDroppedEvents) {
  Tracer::instance().set_ring_capacity(8);
  Tracer::instance().enable();
  for (int i = 0; i < 20; ++i) {
    HARE_SPAN("test", "test.flame_wrapped");
  }
  Tracer::instance().disable();
  Tracer::instance().set_ring_capacity(1u << 16);

  const auto rings = Tracer::instance().rings();
  ASSERT_EQ(rings.size(), 1u);
  const std::string summary = flame_summary();
  EXPECT_EQ(count_occurrences(summary, "obs.dropped_events"), 1u);
  EXPECT_NE(summary.find("# obs.dropped_events tid=" +
                         std::to_string(rings[0]->tid()) + " count=12 "),
            std::string::npos);
  // The surviving eight spans are still summarized.
  EXPECT_NE(summary.find("     8  test.flame_wrapped"), std::string::npos);
}

}  // namespace
}  // namespace hare::obs
