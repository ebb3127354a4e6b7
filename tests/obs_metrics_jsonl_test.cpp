// Metrics registry (counters, histograms, snapshot/merge) and the JSONL
// export formats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ii::obs {
namespace {

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, RecordsBasicStatistics) {
  Histogram h{{10, 100, 1000}};
  for (const std::uint64_t v : {5u, 50u, 500u, 5000u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5555u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_DOUBLE_EQ(h.mean(), 5555.0 / 4.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  for (const std::uint64_t b : h.buckets()) EXPECT_EQ(b, 1u);
}

TEST(Histogram, EmptyIsZeroEverywhere) {
  Histogram h{{10}};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentilesAreMonotonicAndBounded) {
  Histogram h{Histogram::exponential_bounds(16, 2, 20)};
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Bucketed estimate: p50 of 1..1000 must land in the right ballpark.
  EXPECT_NEAR(p50, 500.0, 260.0);
}

TEST(Histogram, PercentileEdgeCases) {
  // p=0 pins to the observed minimum, p=1 to the observed maximum, and
  // out-of-range p clamps instead of extrapolating.
  Histogram single{{10}};
  for (int i = 0; i < 3; ++i) single.record(5);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(single.percentile(-0.5), 5.0);
  EXPECT_DOUBLE_EQ(single.percentile(1.5), 5.0);

  // Values beyond the last bound land in the overflow bucket, whose upper
  // edge is the observed max — estimates never leave [min, max].
  Histogram overflow{{10}};
  overflow.record(100);
  overflow.record(200);
  EXPECT_DOUBLE_EQ(overflow.percentile(0.5), 150.0);
  EXPECT_GE(overflow.percentile(0.0), 100.0);
  EXPECT_LE(overflow.percentile(1.0), 200.0);

  // Empty histogram: every percentile is 0 (no samples to bound it).
  Histogram empty{{10}};
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);
}

TEST(Histogram, MergeFoldsBucketsExactly) {
  const std::vector<std::uint64_t> bounds{10, 100, 1000};
  Histogram a{bounds};
  Histogram b{bounds};
  Histogram reference{bounds};
  for (const std::uint64_t v : {5u, 50u, 500u}) {
    a.record(v);
    reference.record(v);
  }
  for (const std::uint64_t v : {7u, 70u, 7000u}) {
    b.record(v);
    reference.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), reference.count());
  EXPECT_EQ(a.sum(), reference.sum());
  EXPECT_EQ(a.min(), reference.min());
  EXPECT_EQ(a.max(), reference.max());
  EXPECT_EQ(a.buckets(), reference.buckets());
  // Bucket-exact fold ⇒ identical percentile estimates, not just counts.
  EXPECT_DOUBLE_EQ(a.percentile(0.95), reference.percentile(0.95));
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  Histogram a{{10, 100}};
  Histogram b{{10, 200}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, MergeOfEmptyIsIdentityBothWays) {
  Histogram a{{10}};
  a.record(5);
  Histogram empty{{10}};
  a.merge(empty);  // empty rhs: nothing changes (min must not become 0)
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 5u);
  empty.merge(a);  // empty lhs adopts rhs extremes
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 5u);
  EXPECT_EQ(empty.max(), 5u);
}

TEST(MetricsRegistry, MergedPercentilesMatchSingleRegistry) {
  // Worker registries merged into a total must report the same histogram
  // shape a single-threaded run records — the property the campaign's
  // per-worker aggregation depends on.
  MetricsRegistry w1;
  MetricsRegistry w2;
  MetricsRegistry serial;
  const auto bounds = Histogram::exponential_bounds(16, 2, 10);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    (v % 2 == 0 ? w1 : w2).histogram("ns", bounds).record(v * 7);
    serial.histogram("ns", bounds).record(v * 7);
  }
  MetricsRegistry total;
  total.merge(w1.snapshot());
  total.merge(w2.snapshot());
  const auto merged = total.snapshot().histograms.at("ns");
  const auto expected = serial.snapshot().histograms.at("ns");
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(merged.p50, expected.p50);
  EXPECT_DOUBLE_EQ(merged.p95, expected.p95);
  EXPECT_DOUBLE_EQ(merged.p99, expected.p99);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10, 5}), std::invalid_argument);
  EXPECT_THROW(Histogram({10, 10}), std::invalid_argument);
}

TEST(Histogram, ExponentialBoundsAreGeometric) {
  const auto bounds = Histogram::exponential_bounds(16, 2, 4);
  EXPECT_EQ(bounds, (std::vector<std::uint64_t>{16, 32, 64, 128}));
}

TEST(MetricsRegistry, SnapshotIsDeterministic) {
  MetricsRegistry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.histogram("h", {10, 100}).record(7);
  const MetricsSnapshot s1 = reg.snapshot();
  const MetricsSnapshot s2 = reg.snapshot();
  EXPECT_EQ(s1.counters, s2.counters);
  EXPECT_EQ(metrics_jsonl(s1), metrics_jsonl(s2));
  // std::map ordering: "a" serializes before "b".
  const std::string json = metrics_jsonl(s1);
  EXPECT_LT(json.find("\"a\":1"), json.find("\"b\":2"));
  EXPECT_EQ(s1.counter("a"), 1u);
  EXPECT_EQ(s1.counter("missing"), 0u);
}

TEST(MetricsRegistry, MergeAddsCountersAndFoldsHistograms) {
  MetricsRegistry worker1;
  worker1.counter("cells").inc(3);
  worker1.histogram("wall_us", {10, 100, 1000}).record(50);
  MetricsRegistry worker2;
  worker2.counter("cells").inc(4);
  worker2.histogram("wall_us", {10, 100, 1000}).record(500);

  MetricsRegistry total;
  total.merge(worker1.snapshot());
  total.merge(worker2.snapshot());
  const MetricsSnapshot merged = total.snapshot();
  EXPECT_EQ(merged.counter("cells"), 7u);
  EXPECT_EQ(merged.histograms.at("wall_us").count, 2u);
}

TEST(MetricsRegistry, MergeWithMismatchedBoundsPreservesCount) {
  MetricsRegistry reg;
  reg.histogram("h", {10, 100}).record(50);
  MetricsSnapshot other;
  MetricsSnapshot::HistogramData data;
  data.bounds = {7, 77};  // different ladder
  data.buckets = {1, 1, 0};
  data.count = 2;
  data.sum = 60;
  data.min = 10;
  data.max = 50;
  other.histograms["h"] = data;
  reg.merge(other);
  EXPECT_EQ(reg.snapshot().histograms.at("h").count, 3u);
}

TEST(SinkMetrics, FlattensNonzeroCountersOnly) {
  TraceSink sink{16, 0};
  sink.emit(TraceCategory::HypercallEnter, 1, 12);
  sink.emit(TraceCategory::HypercallExit, 1, 12);
  sink.emit(TraceCategory::HypercallEnter, 1, 12);
  sink.emit(TraceCategory::HypercallExit, 1, 12);
  sink.emit(TraceCategory::Injection, 1);

  const MetricsSnapshot snap = sink_metrics(sink);
  EXPECT_EQ(snap.counter("trace.hypercall_enter"), 2u);
  EXPECT_EQ(snap.counter("trace.injection"), 1u);
  EXPECT_EQ(snap.counter("hypercall.nr12"), 2u);
  EXPECT_EQ(snap.counters.count("trace.panic"), 0u);

  // Per-nr counters sum exactly to the traced enter events.
  std::uint64_t per_nr = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("hypercall.nr", 0) == 0) per_nr += value;
  }
  EXPECT_EQ(per_nr, snap.counter("trace.hypercall_enter"));
}

TEST(Jsonl, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string{"\x01"}), "\\u0001");
}

TEST(Jsonl, EventLineFormat) {
  const TraceEvent event{3, TraceCategory::HypercallExit, 1, 12, -22, 0xABC};
  EXPECT_EQ(event_jsonl(event),
            "{\"type\":\"trace\",\"seq\":3,\"cat\":\"hypercall_exit\","
            "\"dom\":1,\"code\":12,\"rc\":-22,\"addr\":\"0xabc\"}");
  // Cell tag, no-domain and zero-addr elision.
  const TraceEvent bare{0, TraceCategory::Panic, kNoDomain, 0, 0, 0};
  EXPECT_EQ(event_jsonl(bare, "XSA-212-crash@4.6/exploit"),
            "{\"type\":\"trace\",\"cell\":\"XSA-212-crash@4.6/exploit\","
            "\"seq\":0,\"cat\":\"panic\",\"code\":0,\"rc\":0}");
}

TEST(Jsonl, MetricsLineFormat) {
  MetricsRegistry reg;
  reg.counter("trace.panic").inc();
  reg.histogram("ns", {10}).record(4);
  const std::string json = metrics_jsonl(reg.snapshot());
  EXPECT_EQ(json.rfind("{\"type\":\"metrics\",\"counters\":{\"trace.panic\""
                       ":1},\"histograms\":{\"ns\":{\"count\":1,\"sum\":4,"
                       "\"min\":4,\"max\":4,", 0),
            0u);
}

TEST(Jsonl, StreamHelpersAreNewlineTerminated) {
  std::ostringstream os;
  write_event(os, TraceEvent{});
  write_events(os, std::vector<TraceEvent>(2), "cell");
  write_metrics(os, MetricsSnapshot{});
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(out.back(), '\n');
}

TEST(Jsonl, SpanLineFormat) {
  SpanProfiler prof;
  prof.add({kSpanCell, kSpanInject}, 2, 79);
  const SpanNode& cell = *prof.root().children.at("cell");
  const std::string line = span_jsonl("cell/inject",
                                      *cell.children.at("inject"));
  EXPECT_EQ(line.rfind("{\"type\":\"span\",\"path\":\"cell/inject\","
                       "\"kind\":\"det\",\"count\":2,\"steps\":79,"
                       "\"total_steps\":79,",
                       0),
            0u);
}

TEST(Jsonl, WriterAppendsTypedRecords) {
  const std::string path = ::testing::TempDir() + "jsonl_writer_test_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    JsonlWriter writer{path};
    ASSERT_TRUE(writer.ok());
    writer.event(TraceEvent{}, "cell");
    MetricsRegistry reg;
    reg.counter("c").inc();
    writer.metrics(reg.snapshot());
    SpanProfiler prof;
    prof.add({kSpanCell}, 1, 3);
    writer.spans(prof);
  }
  std::ifstream in{path};
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(in, line)) {
    kinds.push_back(line.substr(0, line.find(',')));
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], "{\"type\":\"trace\"");
  EXPECT_EQ(kinds[1], "{\"type\":\"metrics\"");
  EXPECT_EQ(kinds[2], "{\"type\":\"span\"");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ii::obs
