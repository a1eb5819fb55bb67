// Tests for the observability subsystem: metrics registry (counters,
// gauges, histograms with percentile estimation), JSON snapshot
// round-trips, and trace spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "util/clock.h"
#include "util/logging.h"

namespace mvtee::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonTest, DumpAndParseRoundTrip) {
  JsonValue::Object obj;
  obj.emplace_back("name", std::string("hello \"world\"\n"));
  obj.emplace_back("count", static_cast<int64_t>(42));
  obj.emplace_back("ratio", 0.25);
  obj.emplace_back("flag", true);
  obj.emplace_back("nothing", JsonValue());
  JsonValue::Array arr;
  arr.push_back(JsonValue(static_cast<int64_t>(1)));
  arr.push_back(JsonValue(static_cast<int64_t>(2)));
  obj.emplace_back("items", JsonValue(std::move(arr)));
  const JsonValue value(std::move(obj));

  for (int indent : {0, 2}) {
    auto parsed = ParseJson(value.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue::Object& o = parsed->as_object();
    ASSERT_EQ(o.size(), 6u);
    EXPECT_EQ(o[0].second.as_string(), "hello \"world\"\n");
    EXPECT_EQ(o[1].second.as_number(), 42.0);
    EXPECT_EQ(o[2].second.as_number(), 0.25);
    EXPECT_TRUE(o[3].second.as_bool());
    EXPECT_TRUE(o[4].second.is_null());
    EXPECT_EQ(o[5].second.as_array().size(), 2u);
  }
}

TEST(JsonTest, EscapeSequencesRoundTrip) {
  // Every escape class the writer emits: quote, backslash, control
  // chars (named and \u-encoded), plus 8-bit pass-through.
  const std::string nasty = "q\"b\\t\tn\nr\rc\x01z\x7f";
  const std::string dumped = JsonValue(nasty).Dump(0);
  auto parsed = ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->as_string(), nasty);
  // Explicit \u escape parse.
  auto uni = ParseJson("\"\\u0041\\u000a\"");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->as_string(), "A\n");
}

TEST(JsonTest, NestedArraysRoundTrip) {
  auto parsed = ParseJson("[[1, [2, [3]]], [], [[\"x\"]]]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue::Array& outer = parsed->as_array();
  ASSERT_EQ(outer.size(), 3u);
  EXPECT_EQ(outer[0].as_array()[1].as_array()[1].as_array()[0].as_number(),
            3.0);
  EXPECT_TRUE(outer[1].as_array().empty());
  EXPECT_EQ(outer[2].as_array()[0].as_array()[0].as_string(), "x");
  // Dump of the parsed tree re-parses to the same shape.
  auto again = ParseJson(parsed->Dump(2));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(0), parsed->Dump(0));
}

TEST(JsonTest, FindMissesReturnNull) {
  auto parsed = ParseJson("{\"present\": 1}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("present"), nullptr);
  EXPECT_EQ(parsed->Find("absent"), nullptr);
  // Find on a non-object is a miss, not a crash.
  EXPECT_EQ(JsonValue(static_cast<int64_t>(3)).Find("x"), nullptr);
  EXPECT_EQ(JsonValue().Find("x"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
}

// ------------------------------------------------------------- counters

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Registry registry;
  Counter& counter = registry.GetCounter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, PointerStableAcrossLookups) {
  Registry registry;
  Counter* a = &registry.GetCounter("stable");
  registry.GetCounter("other");
  EXPECT_EQ(a, &registry.GetCounter("stable"));
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge& g = registry.GetGauge("depth");
  g.Set(5);
  g.Add(-2);
  EXPECT_EQ(g.value(), 3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketBoundsAreMonotonic) {
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_GT(Histogram::BucketBound(i), Histogram::BucketBound(i - 1))
        << "bucket " << i;
  }
  EXPECT_GE(Histogram::BucketBound(Histogram::kNumBuckets - 1),
            int64_t{3'000'000'000});
}

TEST(HistogramTest, PercentilesOnUniformSamples) {
  Histogram h;
  // 1..1000: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990. The geometric buckets
  // carry at most ~25% relative error inside one bucket.
  for (int64_t v = 1; v <= 1000; ++v) h.Observe(v);
  HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.min, 1);
  EXPECT_EQ(stats.max, 1000);
  EXPECT_DOUBLE_EQ(stats.sum, 500500.0);
  EXPECT_NEAR(stats.p50, 500.0, 500.0 * 0.30);
  EXPECT_NEAR(stats.p95, 950.0, 950.0 * 0.30);
  EXPECT_NEAR(stats.p99, 990.0, 990.0 * 0.30);
  EXPECT_DOUBLE_EQ(stats.mean(), 500.5);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  Histogram h;
  h.Observe(70);
  h.Observe(70);
  h.Observe(70);
  // All mass in one bucket: every percentile must stay inside [min,max].
  EXPECT_EQ(h.Percentile(0.0), 70.0);
  EXPECT_EQ(h.Percentile(0.5), 70.0);
  EXPECT_EQ(h.Percentile(1.0), 70.0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Observe(-5);
  HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 0);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.p50, 0.0);
  EXPECT_EQ(stats.mean(), 0.0);
}

TEST(HistogramTest, ConcurrentObservationsAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(t * 100 + i % 97);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------- registry

TEST(RegistryTest, SnapshotCapturesAllKinds) {
  Registry registry;
  registry.GetCounter("c").Add(7);
  registry.GetGauge("g").Set(-3);
  registry.GetHistogram("h").Observe(100);

  RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_EQ(snap.gauges.at("g"), -3);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  Registry registry;
  Counter* c = &registry.GetCounter("c");
  c->Add(5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(&registry.GetCounter("c"), c);
}

TEST(RegistrySnapshotTest, JsonRoundTrip) {
  Registry registry;
  registry.GetCounter("monitor.bytes_sent").Add(4096);
  registry.GetGauge("queue.depth").Set(12);
  Histogram& h = registry.GetHistogram("monitor.stage0.verify_us");
  for (int64_t v : {10, 20, 30, 40, 50}) h.Observe(v);

  RegistrySnapshot snap = registry.Snapshot();
  auto parsed = RegistrySnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->counters, snap.counters);
  EXPECT_EQ(parsed->gauges, snap.gauges);
  ASSERT_EQ(parsed->histograms.size(), 1u);
  const HistogramStats& a = parsed->histograms.at("monitor.stage0.verify_us");
  const HistogramStats& b = snap.histograms.at("monitor.stage0.verify_us");
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

TEST(RegistrySnapshotTest, CompactJsonAlsoParses) {
  Registry registry;
  registry.GetCounter("a.b").Add(1);
  registry.GetHistogram("c.d").Observe(5);
  auto parsed = RegistrySnapshot::FromJson(registry.Snapshot().ToJson(0));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->counters.at("a.b"), 1u);
}

TEST(RegistrySnapshotTest, DeltaSinceSubtractsCounters) {
  Registry registry;
  Counter& c = registry.GetCounter("events");
  Histogram& h = registry.GetHistogram("lat_us");
  c.Add(10);
  h.Observe(100);
  RegistrySnapshot base = registry.Snapshot();
  c.Add(5);
  h.Observe(200);
  RegistrySnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("events"), 5u);
  EXPECT_EQ(delta.histograms.at("lat_us").count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("lat_us").sum, 200.0);
}

// ---------------------------------------------------------------- spans

TEST(TraceTest, SpanNestingDepthsAreRecorded) {
  TraceBuffer buffer(16);
  {
    ScopedSpan outer("a/outer", {}, &buffer);
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
    {
      ScopedSpan inner("a/inner", {.stage = 1, .batch = 7, .tag = "x"},
                       &buffer);
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
      {
        ScopedSpan innermost("a/innermost", {}, &buffer);
        EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
      }
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    }
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), -1);

  // Spans complete innermost-first.
  auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "a/innermost");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].name, "a/inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].stage, 1);
  EXPECT_EQ(spans[1].batch, 7);
  EXPECT_EQ(spans[1].tag, "x");
  EXPECT_EQ(spans[2].name, "a/outer");
  EXPECT_EQ(spans[2].depth, 0);
}

TEST(TraceTest, SpanFeedsHistogram) {
  TraceBuffer buffer(4);
  Histogram h;
  { ScopedSpan span("timed", {}, &buffer, &h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(TraceTest, RingBufferKeepsNewestSpans) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("span" + std::to_string(i), {}, &buffer);
  }
  EXPECT_EQ(buffer.total_recorded(), 10u);
  auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first among the surviving (newest) four.
  EXPECT_EQ(spans[0].name, "span6");
  EXPECT_EQ(spans[3].name, "span9");
}

TEST(TraceTest, ToJsonIsParseable) {
  TraceBuffer buffer(4);
  { ScopedSpan span("x/y", {.stage = 2, .batch = 3, .tag = "v"}, &buffer); }
  auto parsed = ParseJson(buffer.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->as_array().size(), 1u);
}

TEST(TraceTest, TidIsRecordedAndExported) {
  TraceBuffer buffer(8);
  const int32_t here = CurrentTid();
  EXPECT_GT(here, 0);
  EXPECT_EQ(CurrentTid(), here);  // stable on re-query
  { ScopedSpan span("t/local", {}, &buffer); }
  int32_t other = 0;
  std::thread([&] {
    other = CurrentTid();
    ScopedSpan span("t/remote", {}, &buffer);
  }).join();
  EXPECT_NE(other, here);

  auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, here);
  EXPECT_EQ(spans[1].tid, other);

  auto parsed = ParseJson(buffer.ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* tid = parsed->as_array()[0].Find("tid");
  ASSERT_NE(tid, nullptr);
  EXPECT_EQ(tid->as_number(), static_cast<double>(here));
}

TEST(TraceTest, ToJsonOnEmptyAndWrappedBuffers) {
  TraceBuffer empty(4);
  auto parsed = ParseJson(empty.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->as_array().empty());

  // Wrapped ring: ToJson carries exactly the surviving capacity-many
  // spans, oldest first.
  TraceBuffer wrapped(3);
  for (int i = 0; i < 7; ++i) {
    ScopedSpan span("w" + std::to_string(i), {}, &wrapped);
  }
  auto wj = ParseJson(wrapped.ToJson(0));
  ASSERT_TRUE(wj.ok());
  ASSERT_EQ(wj->as_array().size(), 3u);
  EXPECT_EQ(wj->as_array()[0].Find("name")->as_string(), "w4");
  EXPECT_EQ(wj->as_array()[2].Find("name")->as_string(), "w6");

  wrapped.Clear();
  EXPECT_TRUE(wrapped.Snapshot().empty());
  EXPECT_EQ(wrapped.total_recorded(), 0u);
}

// -------------------------------------------------------- trace context

TEST(TraceContextTest, SpansParentUnderEnclosingSpan) {
  TraceBuffer buffer(8);
  const uint64_t trace = NewTraceId();
  uint64_t outer_id = 0;
  {
    TraceContextScope root(trace, 0);
    ScopedSpan outer("ctx/outer", {}, &buffer);
    outer_id = outer.context().span_id;
    EXPECT_EQ(outer.context().trace_id, trace);
    { ScopedSpan inner("ctx/inner", {}, &buffer); }
  }
  // Context restored once the scope closed.
  EXPECT_FALSE(CurrentTraceContext().valid());

  auto spans = buffer.Snapshot();  // inner completes first
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, trace);
  EXPECT_EQ(spans[0].parent_span_id, outer_id);
  EXPECT_EQ(spans[1].span_id, outer_id);
  EXPECT_EQ(spans[1].parent_span_id, 0u);
  EXPECT_NE(spans[0].span_id, spans[1].span_id);
}

TEST(TraceContextTest, RemoteParentAdoptedAcrossThreads) {
  // Monitor side: a dispatch span whose context crosses the "TEE
  // boundary"; variant side: a thread adopting it via TraceContextScope.
  TraceBuffer monitor_buf(4), variant_buf(4);
  TraceContext wire;
  {
    TraceContextScope root(NewTraceId(), 0);
    ScopedSpan dispatch("monitor/admit", {}, &monitor_buf);
    wire = dispatch.context();
  }
  std::thread([&] {
    TraceContextScope remote(wire);
    ScopedSpan infer("variant/infer", {}, &variant_buf);
  }).join();

  auto vspans = variant_buf.Snapshot();
  ASSERT_EQ(vspans.size(), 1u);
  EXPECT_EQ(vspans[0].trace_id, wire.trace_id);
  EXPECT_EQ(vspans[0].parent_span_id, wire.span_id);
}

TEST(TraceCollectorTest, MergeAndSliceByTraceId) {
  TraceCollector collector;
  auto mon = std::make_shared<TraceBuffer>(8);
  auto tee = std::make_shared<TraceBuffer>(8);
  collector.Register("monitor", mon);
  collector.Register("tee/s0.v1", tee);

  const uint64_t t1 = NewTraceId(), t2 = NewTraceId();
  {
    TraceContextScope scope(t1, 0);
    ScopedSpan a("m/one", {}, mon.get());
  }
  {
    TraceContextScope scope(t2, 0);
    ScopedSpan b("m/two", {}, mon.get());
    ScopedSpan c("v/two", {}, tee.get());
  }

  TraceCollector::MergedTrace merged = collector.Merge();
  ASSERT_EQ(merged.processes.size(), 2u);
  EXPECT_EQ(merged.processes[0].process, "monitor");  // name order
  EXPECT_EQ(merged.processes[1].process, "tee/s0.v1");
  EXPECT_EQ(merged.total_spans(), 3u);

  TraceCollector::MergedTrace slice = merged.Slice(t1);
  ASSERT_EQ(slice.processes.size(), 1u);  // buffers with no match drop
  EXPECT_EQ(slice.processes[0].process, "monitor");
  ASSERT_EQ(slice.total_spans(), 1u);
  EXPECT_EQ(slice.processes[0].spans[0].name, "m/one");

  auto parsed = ParseJson(merged.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("processes"), nullptr);

  collector.Unregister("tee/s0.v1");
  EXPECT_EQ(collector.Merge().processes.size(), 1u);
}

// ------------------------------------------------------------ exporters

TEST(ChromeTraceExporterTest, EmitsValidTraceEventJson) {
  TraceCollector collector;
  auto mon = std::make_shared<TraceBuffer>(8);
  auto tee = std::make_shared<TraceBuffer>(8);
  collector.Register("monitor", mon);
  collector.Register("tee/s0.v1", tee);
  uint64_t span_id = 0;
  {
    TraceContextScope scope(NewTraceId(), 0);
    ScopedSpan a("monitor/admit", {.batch = 5, .tag = {}}, mon.get());
    span_id = a.context().span_id;
    ScopedSpan b("variant/infer", {.stage = 0, .batch = 5, .tag = "s0.v1"},
                 tee.get());
  }

  ChromeTraceExporter exporter(&collector);
  auto parsed = ParseJson(exporter.Export());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Two metadata rows (one per process) + two duration events.
  ASSERT_EQ(events->as_array().size(), 4u);

  int metadata = 0, duration = 0;
  for (const JsonValue& ev : events->as_array()) {
    const std::string& ph = ev.Find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.Find("name")->as_string(), "process_name");
      ASSERT_NE(ev.Find("args"), nullptr);
      EXPECT_NE(ev.Find("args")->Find("name"), nullptr);
    } else {
      ASSERT_EQ(ph, "X");
      ++duration;
      EXPECT_NE(ev.Find("ts"), nullptr);
      EXPECT_NE(ev.Find("dur"), nullptr);
      EXPECT_GE(ev.Find("pid")->as_number(), 1.0);
      ASSERT_NE(ev.Find("args"), nullptr);
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(duration, 2);

  // Ids survive as strings (64-bit safe).
  for (const JsonValue& ev : events->as_array()) {
    if (ev.Find("ph")->as_string() != "X") continue;
    if (ev.Find("name")->as_string() != "monitor/admit") continue;
    EXPECT_EQ(ev.Find("args")->Find("span_id")->as_string(),
              std::to_string(span_id));
  }
}

TEST(PrometheusExporterTest, TextExpositionFormat) {
  Registry registry;
  registry.GetCounter("monitor.divergences_total").Add(3);
  registry.GetGauge("service.admission_queue_depth_hwm").Set(7);
  Histogram& h = registry.GetHistogram("monitor.batch_latency_us");
  for (int64_t v : {100, 200, 300}) h.Observe(v);

  PrometheusExporter exporter(&registry);
  const std::string text = exporter.Export();

  EXPECT_NE(text.find("# TYPE mvtee_monitor_divergences_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("mvtee_monitor_divergences_total 3\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE mvtee_service_admission_queue_depth_hwm gauge\n"),
      std::string::npos);
  EXPECT_NE(text.find("mvtee_service_admission_queue_depth_hwm 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mvtee_monitor_batch_latency_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("mvtee_monitor_batch_latency_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("mvtee_monitor_batch_latency_us_sum 600\n"),
            std::string::npos);
  EXPECT_NE(text.find("mvtee_monitor_batch_latency_us_count 3\n"),
            std::string::npos);

  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 6, "mvtee_"), 0) << line;
    // Value parses as a number.
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }

  EXPECT_EQ(PrometheusExporter::MetricName("monitor.stage0.verify_us"),
            "mvtee_monitor_stage0_verify_us");
  EXPECT_EQ(PrometheusExporter::MetricName("weird-name.1"),
            "mvtee_weird_name_1");
}

// ------------------------------------------------------ flight recorder

CheckpointEvidence MakeEvidence(uint64_t trace_id, uint64_t batch,
                                const std::string& verdict) {
  CheckpointEvidence ev;
  ev.trace_id = trace_id;
  ev.batch = batch;
  ev.stage = 0;
  ev.verdict = verdict;
  ev.v_decide_us = 1000 + static_cast<int64_t>(batch);
  VariantEvidence a{"s0.v1", true, 0xdeadbeefULL, false, 900, false};
  VariantEvidence b{"s0.v2", true, 0xfeedfaceULL, false, 950, true};
  ev.variants = {a, b};
  return ev;
}

TEST(FlightRecorderTest, BoundedRingKeepsNewest) {
  FlightRecorder recorder(4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Note(MakeEvidence(1, i, "accepted"));
  }
  EXPECT_EQ(recorder.total_noted(), 10u);
  auto snap = recorder.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().batch, 6u);  // oldest survivor
  EXPECT_EQ(snap.back().batch, 9u);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.total_noted(), 0u);
}

TEST(FlightRecorderTest, DumpBundleRequiresEvidenceDir) {
  ::unsetenv("MVTEE_EVIDENCE_DIR");
  FlightRecorder recorder(4);
  auto result = recorder.DumpBundle("run-abort", 0, "no dir set");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(FlightRecorderTest, DumpBundleWritesSelfContainedJson) {
  char dir_template[] = "/tmp/mvtee-evidence-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  ::setenv("MVTEE_EVIDENCE_DIR", dir_template, 1);

  TraceCollector collector;
  auto buf = std::make_shared<TraceBuffer>(8);
  collector.Register("monitor", buf);
  const uint64_t trace = NewTraceId();
  {
    TraceContextScope scope(trace, 0);
    ScopedSpan span("monitor/admit", {}, buf.get());
  }
  {
    TraceContextScope scope(NewTraceId(), 0);  // unrelated trace
    ScopedSpan span("monitor/other", {}, buf.get());
  }

  FlightRecorder recorder(8);
  recorder.Note(MakeEvidence(trace, 0, "accepted"));
  recorder.Note(MakeEvidence(trace, 1, "divergence"));
  const uint64_t bundles0 =
      Registry::Default().GetCounter("recorder.bundles_written").value();

  auto path = recorder.DumpBundle("vote-divergence", trace,
                                  "stage 0 batch 1: 1/2 variants dissent",
                                  &collector);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(
      Registry::Default().GetCounter("recorder.bundles_written").value(),
      bundles0 + 1);

  std::ifstream in(*path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  auto parsed = ParseJson(content.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Find("schema")->as_string(), "mvtee-evidence-v1");
  EXPECT_EQ(parsed->Find("trigger")->as_string(), "vote-divergence");
  EXPECT_EQ(parsed->Find("trace_id")->as_string(), std::to_string(trace));
  ASSERT_NE(parsed->Find("metrics"), nullptr);

  const JsonValue* verdicts = parsed->Find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  ASSERT_EQ(verdicts->as_array().size(), 2u);
  const JsonValue& bad = verdicts->as_array()[1];
  EXPECT_EQ(bad.Find("verdict")->as_string(), "divergence");
  const JsonValue::Array& variants = bad.Find("variants")->as_array();
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].Find("digest")->as_string(), "00000000deadbeef");
  EXPECT_FALSE(variants[0].Find("dissent")->as_bool());
  EXPECT_TRUE(variants[1].Find("dissent")->as_bool());

  // The embedded trace is sliced to the incident's trace id.
  const JsonValue* trace_obj = parsed->Find("trace");
  ASSERT_NE(trace_obj, nullptr);
  const JsonValue::Array& procs = trace_obj->Find("processes")->as_array();
  ASSERT_EQ(procs.size(), 1u);
  ASSERT_EQ(procs[0].Find("spans")->as_array().size(), 1u);
  EXPECT_EQ(
      procs[0].Find("spans")->as_array()[0].Find("name")->as_string(),
      "monitor/admit");

  ::unsetenv("MVTEE_EVIDENCE_DIR");
  std::remove(path->c_str());
  ::rmdir(dir_template);
}


// ------------------------------------------------------------ timeline

RequestTimeline MakeTimeline(uint64_t trace_id, uint64_t seq,
                             int64_t infer_us) {
  RequestTimeline t;
  t.trace_id = trace_id;
  t.session_id = 1;
  t.seq = seq;
  t.enqueue_wall_us = 1'000'000 + static_cast<int64_t>(seq);
  t.queue_wait_us = 10;
  t.coalesce_us = 2;
  t.infer_us = infer_us;
  t.verify_us = 5;
  t.ok = true;
  return t;
}

TEST(TimelineLogTest, SnapshotIsOldestFirstAndBounded) {
  TimelineLog log(4);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Note(MakeTimeline(100 + i, i, 1000));
  }
  EXPECT_EQ(log.total_noted(), 10u);
  auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 6u);  // oldest survivor
  EXPECT_EQ(snap.back().seq, 9u);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.total_noted(), 0u);
}

TEST(TimelineLogTest, NoteReplyPatchesNewestMatchOnly) {
  TimelineLog log(8);
  log.Note(MakeTimeline(7, 0, 1000));
  log.Note(MakeTimeline(8, 1, 1000));
  log.Note(MakeTimeline(7, 2, 1000));  // same trace id, newer entry
  log.NoteReply(7, 333);
  auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].reply_us, 0);  // older entry untouched
  EXPECT_EQ(snap[1].reply_us, 0);
  EXPECT_EQ(snap[2].reply_us, 333);
  // A trace id already evicted (or never noted) is silently dropped.
  log.NoteReply(424242, 1);
}

TEST(TimelineLogTest, SlowestKRanksByTotalTime) {
  TimelineLog log(16);
  for (uint64_t i = 0; i < 6; ++i) {
    log.Note(MakeTimeline(i, i, static_cast<int64_t>(1000 * (i + 1))));
  }
  auto slowest = log.SlowestK(3);
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].trace_id, 5u);
  EXPECT_EQ(slowest[1].trace_id, 4u);
  EXPECT_EQ(slowest[2].trace_id, 3u);
  // k beyond the retained count clamps.
  EXPECT_EQ(log.SlowestK(100).size(), 6u);
}

TEST(TimelineLogTest, ToJsonKeepsTraceIdExact) {
  // A trace id above 2^53 would round if serialized as a JSON number.
  RequestTimeline t = MakeTimeline(0xffffffffffffffffULL, 3, 1000);
  t.reply_us = 9;
  JsonValue json = TimelineToJson(t);
  EXPECT_EQ(json.Find("trace_id")->as_string(), "18446744073709551615");
  EXPECT_EQ(json.Find("seq")->as_number(), 3.0);
  EXPECT_EQ(json.Find("infer_us")->as_number(), 1000.0);
  EXPECT_EQ(json.Find("reply_us")->as_number(), 9.0);
  auto reparsed = ParseJson(json.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

// ------------------------------------------------------------ watchdog

TEST(WatchdogKnobTest, OptionsFromEnvAppliesValidValues) {
  ::setenv("MVTEE_WATCHDOG_POLL_MS", "5", 1);
  ::setenv("MVTEE_WATCHDOG_STALL_MS", "150", 1);
  ::setenv("MVTEE_WATCHDOG_QUEUE_ALARM", "bogus", 1);  // keeps default
  WatchdogOptions opts = WatchdogOptions::FromEnv();
  EXPECT_EQ(opts.poll_interval_us, 5'000);
  EXPECT_EQ(opts.stall_threshold_us, 150'000);
  EXPECT_EQ(opts.queue_depth_alarm, WatchdogOptions{}.queue_depth_alarm);
  ::unsetenv("MVTEE_WATCHDOG_POLL_MS");
  ::unsetenv("MVTEE_WATCHDOG_STALL_MS");
  ::unsetenv("MVTEE_WATCHDOG_QUEUE_ALARM");
}

// Evaluate() is driven with a synthetic clock: the first heartbeat
// advance re-baselines last_advance to the fake `now`, after which
// silence is measured against it.
TEST(WatchdogTest, IdleSilenceStaysHealthy) {
  Registry reg;
  WatchdogOptions opts;
  opts.stall_threshold_us = 100'000;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  const int64_t t0 = 1'000'000'000;
  reg.GetCounter("monitor.loop_heartbeat").Add(1);
  dog.Evaluate(t0);  // baseline
  // Way past the threshold, but queue and inflight are both 0: an idle
  // loop parked in cv.wait is healthy, not stalled.
  dog.Evaluate(t0 + 10 * opts.stall_threshold_us);
  EXPECT_TRUE(dog.health().healthy);
  EXPECT_EQ(reg.GetCounter("watchdog.stall_alarms_total").value(), 0u);
  EXPECT_EQ(reg.GetGauge("watchdog.healthy").value(), 1);
}

TEST(WatchdogTest, BusySilenceFlipsUnhealthyAndRearms) {
  Registry reg;
  WatchdogOptions opts;
  opts.stall_threshold_us = 100'000;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  Counter& beat = reg.GetCounter("monitor.loop_heartbeat");
  Gauge& queue = reg.GetGauge("service.admission_queue_depth");
  const int64_t t0 = 1'000'000'000;
  beat.Add(1);
  dog.Evaluate(t0);  // baseline
  queue.Set(2);
  dog.Evaluate(t0 + opts.stall_threshold_us - 1);
  EXPECT_TRUE(dog.health().healthy);  // not yet sustained
  dog.Evaluate(t0 + opts.stall_threshold_us);
  StallWatchdog::Health h = dog.health();
  EXPECT_FALSE(h.healthy);
  EXPECT_NE(h.reason.find("event loop silent"), std::string::npos);
  EXPECT_EQ(h.stall_alarms, 1u);
  EXPECT_EQ(reg.GetGauge("watchdog.healthy").value(), 0);
  // Holding the stall does not double-count the episode.
  dog.Evaluate(t0 + 2 * opts.stall_threshold_us);
  EXPECT_EQ(dog.health().stall_alarms, 1u);
  // The heartbeat advancing ends the episode...
  beat.Add(1);
  dog.Evaluate(t0 + 3 * opts.stall_threshold_us);
  EXPECT_TRUE(dog.health().healthy);
  // ...and a second sustained stall is a second episode.
  dog.Evaluate(t0 + 5 * opts.stall_threshold_us);
  EXPECT_EQ(dog.health().stall_alarms, 2u);
}

TEST(WatchdogTest, SustainedStallDumpsOneEvidenceBundle) {
  char dir_template[] = "/tmp/mvtee-watchdog-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  ::setenv("MVTEE_EVIDENCE_DIR", dir_template, 1);

  Registry reg;
  WatchdogOptions opts;
  opts.stall_threshold_us = 100'000;
  FlightRecorder recorder(8);
  recorder.Note(MakeEvidence(1, 0, "accepted"));
  StallWatchdog dog(reg, opts, &recorder);
  Counter& beat = reg.GetCounter("monitor.loop_heartbeat");
  reg.GetGauge("service.inflight").Set(1);
  const int64_t t0 = 1'000'000'000;
  beat.Add(1);
  dog.Evaluate(t0);
  dog.Evaluate(t0 + opts.stall_threshold_us);
  Counter& bundles = reg.GetCounter("watchdog.stall_bundles_total");
  EXPECT_EQ(bundles.value(), 1u);
  // The episode dumps exactly once, however long it lasts.
  dog.Evaluate(t0 + 2 * opts.stall_threshold_us);
  dog.Evaluate(t0 + 3 * opts.stall_threshold_us);
  EXPECT_EQ(bundles.value(), 1u);
  // Recovery re-arms: the NEXT sustained stall leaves fresh evidence.
  beat.Add(1);
  dog.Evaluate(t0 + 4 * opts.stall_threshold_us);
  dog.Evaluate(t0 + 6 * opts.stall_threshold_us);
  EXPECT_EQ(bundles.value(), 2u);

  // The bundles are well-formed evidence files in the evidence dir.
  int bundle_files = 0;
  std::string dir(dir_template);
  ::DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    ++bundle_files;
    std::ifstream in(dir + "/" + name);
    std::stringstream content;
    content << in.rdbuf();
    auto parsed = ParseJson(content.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Find("trigger")->as_string(), "watchdog-stall");
    std::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
  EXPECT_EQ(bundle_files, 2);
  ::unsetenv("MVTEE_EVIDENCE_DIR");
  ::rmdir(dir_template);
}

TEST(WatchdogTest, QueueDepthAlarm) {
  Registry reg;
  WatchdogOptions opts;
  opts.queue_depth_alarm = 4;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  Counter& beat = reg.GetCounter("monitor.loop_heartbeat");
  Gauge& queue = reg.GetGauge("service.admission_queue_depth");
  int64_t now = 1'000'000'000;
  auto tick = [&] {  // heartbeat keeps advancing: no stall in play
    beat.Add(1);
    dog.Evaluate(now += 1000);
  };
  tick();
  EXPECT_TRUE(dog.health().healthy);
  queue.Set(4);
  tick();
  EXPECT_FALSE(dog.health().healthy);
  EXPECT_NE(dog.health().reason.find("admission queue depth"),
            std::string::npos);
  EXPECT_EQ(reg.GetCounter("watchdog.queue_alarms_total").value(), 1u);
  tick();  // held condition: rising-edge counter does not re-fire
  EXPECT_EQ(reg.GetCounter("watchdog.queue_alarms_total").value(), 1u);
  queue.Set(0);
  tick();
  EXPECT_TRUE(dog.health().healthy);
}

TEST(WatchdogTest, StallEpisodeEndsWhenServiceGoesIdle) {
  // A request released from a stall can complete within the loop
  // iteration that was stuck: queue and inflight drop to 0 and nothing
  // bumps the heartbeat again. Idle silence is healthy, so the episode
  // ends there, and the next stall is a new episode with new evidence.
  char dir_template[] = "/tmp/mvtee-watchdog-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  ::setenv("MVTEE_EVIDENCE_DIR", dir_template, 1);

  Registry reg;
  WatchdogOptions opts;
  opts.stall_threshold_us = 100'000;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  Gauge& queue = reg.GetGauge("service.admission_queue_depth");
  Gauge& inflight = reg.GetGauge("service.inflight");
  Counter& bundles = reg.GetCounter("watchdog.stall_bundles_total");
  const int64_t t0 = 1'000'000'000;
  reg.GetCounter("monitor.loop_heartbeat").Add(1);
  dog.Evaluate(t0);  // baseline
  queue.Set(1);
  inflight.Set(1);
  dog.Evaluate(t0 + opts.stall_threshold_us);
  EXPECT_FALSE(dog.health().healthy);
  EXPECT_EQ(bundles.value(), 1u);
  // Released: the request completes and no heartbeat follows.
  queue.Set(0);
  inflight.Set(0);
  dog.Evaluate(t0 + 2 * opts.stall_threshold_us);
  EXPECT_TRUE(dog.health().healthy);
  EXPECT_EQ(reg.GetGauge("watchdog.healthy").value(), 1);
  // New work meets a silent loop again: a second episode and bundle.
  inflight.Set(1);
  dog.Evaluate(t0 + 4 * opts.stall_threshold_us);
  EXPECT_FALSE(dog.health().healthy);
  EXPECT_EQ(dog.health().stall_alarms, 2u);
  EXPECT_EQ(bundles.value(), 2u);

  const std::string dir(dir_template);
  ::DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") std::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::unsetenv("MVTEE_EVIDENCE_DIR");
  ::rmdir(dir_template);
}

TEST(WatchdogTest, RequestAfterIdleSpellIsNotAStall) {
  // The silence clock runs only while work is pending: a request that
  // arrives after an idle spell longer than the threshold meets a loop
  // that is parked, not wedged.
  Registry reg;
  WatchdogOptions opts;
  opts.stall_threshold_us = 100'000;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  const int64_t t0 = 1'000'000'000;
  reg.GetCounter("monitor.loop_heartbeat").Add(1);
  dog.Evaluate(t0);  // baseline
  const int64_t idle = t0 + 10 * opts.stall_threshold_us;
  dog.Evaluate(idle);  // a healthy idle sample
  EXPECT_TRUE(dog.health().healthy);
  reg.GetGauge("service.admission_queue_depth").Set(1);
  dog.Evaluate(idle + 10);
  EXPECT_TRUE(dog.health().healthy) << dog.health().reason;
  EXPECT_EQ(dog.health().silent_for_us, 10);
  EXPECT_EQ(reg.GetCounter("watchdog.stall_alarms_total").value(), 0u);
  EXPECT_EQ(reg.GetCounter("watchdog.stall_bundles_total").value(), 0u);
  // The loop staying silent with the request pending is still a stall.
  dog.Evaluate(idle + 10 + opts.stall_threshold_us);
  EXPECT_FALSE(dog.health().healthy);
  EXPECT_EQ(reg.GetCounter("watchdog.stall_alarms_total").value(), 1u);
}

TEST(WatchdogTest, BackgroundThreadTicks) {
  Registry reg;
  WatchdogOptions opts;
  opts.poll_interval_us = 2'000;
  FlightRecorder recorder(4);
  StallWatchdog dog(reg, opts, &recorder);
  dog.Start();
  Counter& ticks = reg.GetCounter("watchdog.ticks_total");
  const int64_t give_up = util::NowMicros() + 5'000'000;
  while (ticks.value() < 3 && util::NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dog.Stop();
  dog.Stop();  // idempotent
  EXPECT_GE(ticks.value(), 3u);
}

// --------------------------------------- prometheus 0.0.4 conformance

TEST(PrometheusExporterTest, LabelAndHelpEscaping) {
  EXPECT_EQ(PrometheusExporter::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusExporter::EscapeLabelValue("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  EXPECT_EQ(PrometheusExporter::EscapeHelpText("a\\b\nc"), "a\\\\b\\nc");
  // HELP text keeps double quotes unescaped per the 0.0.4 spec.
  EXPECT_EQ(PrometheusExporter::EscapeHelpText("say \"hi\""),
            "say \"hi\"");
}

TEST(PrometheusExporterTest, HelpAndTypePrecedeEveryMetric) {
  Registry reg;
  reg.GetCounter("a.count_total").Add(1);
  reg.GetGauge("a.depth").Set(2);
  reg.GetHistogram("a.lat_us").Observe(10);
  const std::string text = PrometheusExporter(&reg).Export();
  for (const char* name :
       {"mvtee_a_count_total", "mvtee_a_depth", "mvtee_a_lat_us"}) {
    const size_t help = text.find("# HELP " + std::string(name) + " ");
    const size_t type = text.find("# TYPE " + std::string(name) + " ");
    const size_t sample = text.find("\n" + std::string(name));
    ASSERT_NE(help, std::string::npos) << name;
    ASSERT_NE(type, std::string::npos) << name;
    ASSERT_NE(sample, std::string::npos) << name;
    EXPECT_LT(help, type) << name;
    EXPECT_LT(type, sample) << name;
  }
}

TEST(PrometheusExporterTest, CollidingSanitizedNamesEmitOnce) {
  // "q.depth" and "q_depth" both sanitize to mvtee_q_depth; emitting
  // both would duplicate the # TYPE line, which parsers reject.
  Registry reg;
  reg.GetGauge("q.depth").Set(1);
  reg.GetGauge("q_depth").Set(2);
  reg.GetCounter("other_total").Add(1);
  const std::string text = PrometheusExporter(&reg).Export();
  size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE mvtee_q_depth gauge", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  // And exactly one sample line for the name.
  size_t samples = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("mvtee_q_depth ", 0) == 0) ++samples;
  }
  EXPECT_EQ(samples, 1u);
}

// ------------------------------ histogram snapshot consistency (TSan)

TEST(HistogramTest, StatsAreSelfConsistentUnderConcurrentObserve) {
  Registry reg;
  Histogram& h = reg.GetHistogram("stress.lat_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop, t] {
      uint64_t x = 88172645463325252ULL + static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.Observe(static_cast<int64_t>(x % 100'000));
      }
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    HistogramStats s = h.Stats();
    // Quantiles and count come from ONE bucket-array snapshot: they
    // must be mutually ordered and inside the observed range even
    // while writers race.
    EXPECT_GE(s.count, last_count);
    last_count = s.count;
    if (s.count == 0) continue;
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_GE(s.p50, 0.0);
    EXPECT_LT(s.p99, 200'000.0);  // top bucket bound for 100k samples
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  HistogramStats final = h.Stats();
  EXPECT_EQ(final.count, h.count());
  EXPECT_LE(final.p50, final.p95);
}


// ------------------------------------------- trace ids in log lines

TEST(TraceContextTest, LiveScopeStampsLogLines) {
  // obs/trace.cc wires the provider at static init: any log emitted
  // under a live TraceContextScope carries the active trace id.
  const uint64_t id = NewTraceId();
  ::testing::internal::CaptureStderr();
  {
    TraceContextScope scope(id, 0);
    MVTEE_WLOG << "inside-scope";
  }
  MVTEE_WLOG << "outside-scope";
  const std::string captured = ::testing::internal::GetCapturedStderr();
  std::istringstream lines(captured);
  std::string line;
  bool saw_inside = false, saw_outside = false;
  while (std::getline(lines, line)) {
    if (line.find("inside-scope") != std::string::npos) {
      saw_inside = true;
      EXPECT_NE(line.find("t=" + std::to_string(id)), std::string::npos)
          << line;
    }
    if (line.find("outside-scope") != std::string::npos) {
      saw_outside = true;
      EXPECT_EQ(line.find("t="), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_inside);
  EXPECT_TRUE(saw_outside);
}

}  // namespace
}  // namespace mvtee::obs
