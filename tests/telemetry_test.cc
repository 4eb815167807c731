/**
 * @file
 * Tests for the telemetry subsystem: counters/gauges/histograms in the
 * global registry (including under thread contention), scoped spans and
 * the recorder's span events, JSON writer/validator, the disabled-mode
 * zero-recording guarantee, and a clean process exit while pool
 * workers are still closing spans.
 */
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"
#include "telemetry/journal.h"
#include "telemetry/json.h"
#include "telemetry/recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

namespace xtalk::telemetry {
namespace {

/** Every test starts from a clean, enabled registry and no events. */
class TelemetryTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        SetEnabled(true);
        SetTracingEnabled(false);
        Registry::Global().Reset();
        ClearEvents();
    }

    void
    TearDown() override
    {
        SetEnabled(false);
        SetTracingEnabled(false);
        SetJournalEnabled(false);
        Registry::Global().Reset();
        ClearEvents();
    }
};

TEST_F(TelemetryTest, CounterCountsAndResets)
{
    Counter& c = GetCounter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.Add();
    c.Add(41);
    EXPECT_EQ(c.value(), 42u);
    Registry::Global().Reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, RegistryReturnsSameObjectForSameName)
{
    Counter& a = GetCounter("test.same");
    Counter& b = GetCounter("test.same");
    EXPECT_EQ(&a, &b);
    // Reset zeroes but never destroys: cached references stay valid.
    Registry::Global().Reset();
    a.Add(3);
    EXPECT_EQ(GetCounter("test.same").value(), 3u);
}

TEST_F(TelemetryTest, ConcurrentCounterIncrementsAreLossless)
{
    Counter& c = GetCounter("test.concurrent");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) {
                c.Add();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
}

TEST_F(TelemetryTest, GaugeIsLastWriteWins)
{
    Gauge& g = GetGauge("test.gauge");
    g.Set(1.5);
    g.Set(-2.25);
    EXPECT_DOUBLE_EQ(g.value(), -2.25);
    Registry::Global().Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketBoundariesAreInclusiveUpper)
{
    Histogram& h = GetHistogram("test.hist", {1.0, 10.0, 100.0});
    // Bucket i counts values <= bounds[i]; one overflow bucket after.
    h.Record(0.5);    // bucket 0
    h.Record(1.0);    // bucket 0 (inclusive upper bound)
    h.Record(1.0001); // bucket 1
    h.Record(10.0);   // bucket 1
    h.Record(99.0);   // bucket 2
    h.Record(1e6);    // overflow
    const std::vector<uint64_t> buckets = h.BucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 1u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.RecordedMin(), 0.5);
    EXPECT_DOUBLE_EQ(h.RecordedMax(), 1e6);
    EXPECT_NEAR(h.Mean(), (0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 1e6) / 6.0,
                1e-6);
}

TEST_F(TelemetryTest, HistogramPercentilesInterpolate)
{
    Histogram& h = GetHistogram("test.pctl", {10.0, 20.0, 30.0});
    for (int i = 1; i <= 100; ++i) {
        h.Record(static_cast<double>(i % 30) + 0.5);
    }
    // All mass is below 30: p100 within the third bucket, p0 in the first.
    EXPECT_LE(h.Percentile(100.0), 30.0);
    EXPECT_LE(h.Percentile(0.0), 10.0);
    EXPECT_LE(h.Percentile(50.0), h.Percentile(90.0));
    EXPECT_LE(h.Percentile(90.0), h.Percentile(99.0));
}

TEST_F(TelemetryTest, HistogramConcurrentRecordKeepsTotalCount)
{
    Histogram& h = GetHistogram("test.hist.mt", {0.25, 0.5, 0.75});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i) {
                h.Record(static_cast<double>((i + t) % 100) / 100.0);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
    uint64_t bucket_total = 0;
    for (uint64_t b : h.BucketCounts()) {
        bucket_total += b;
    }
    EXPECT_EQ(bucket_total, h.count());
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing)
{
    SetEnabled(false);
    EXPECT_FALSE(Enabled());
    {
        ScopedSpan span("test.disabled");
        EXPECT_FALSE(span.active());
    }
    // The span histogram must not even exist in the snapshot.
    const std::string json = StatsJson();
    EXPECT_EQ(json.find("span.test.disabled.ms"), std::string::npos);
    EXPECT_TRUE(RecordedEvents(Event::Kind::kSpan).empty());
}

TEST_F(TelemetryTest, ScopedSpanRecordsDurationHistogram)
{
    {
        ScopedSpan span("test.span");
        EXPECT_TRUE(span.active());
    }
    Histogram& h = GetHistogram("span.test.span.ms");
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.RecordedMax(), 0.0);
}

TEST_F(TelemetryTest, NestedSpansLandInTraceBufferWithDepth)
{
    SetTracingEnabled(true);
    {
        ScopedSpan outer("test.outer");
        {
            ScopedSpan inner("test.inner");
        }
    }
    const std::vector<Event> events = RecordedEvents(Event::Kind::kSpan);
    ASSERT_EQ(events.size(), 2u);
    // Inner closes first, so it is appended first.
    EXPECT_EQ(events[0].name, "test.inner");
    EXPECT_EQ(events[1].name, "test.outer");
    EXPECT_EQ(events[0].depth, 1u);
    EXPECT_EQ(events[1].depth, 0u);
    EXPECT_EQ(events[0].tid, events[1].tid);
    // Inner is contained in outer's interval.
    EXPECT_GE(events[0].ts_us, events[1].ts_us);
    EXPECT_LE(events[0].ts_us + events[0].dur_us,
              events[1].ts_us + events[1].dur_us + 1.0);
}

TEST_F(TelemetryTest, TraceBufferIsBoundedAndCountsDrops)
{
    SetTracingEnabled(true);
    SetEventCapacity(Event::Kind::kSpan, 4);
    for (int i = 0; i < 10; ++i) {
        ScopedSpan span("test.bounded");
    }
    EXPECT_EQ(RecordedEvents(Event::Kind::kSpan).size(), 4u);
    EXPECT_EQ(DroppedEventCount(Event::Kind::kSpan), 6u);
    SetEventCapacity(Event::Kind::kSpan, kDefaultEventCapacity);
    ClearEvents();
    EXPECT_EQ(DroppedEventCount(Event::Kind::kSpan), 0u);
}

TEST_F(TelemetryTest, SpanAndJournalEventOnOneWorkerShareTidAndTrace)
{
    SetTracingEnabled(true);
    SetJournalEnabled(true);
    TraceContext context;
    ASSERT_TRUE(
        ParseTraceId("0badc0de0badc0de0badc0de0badc0de", &context));
    context.span = 0x77;
    runtime::ThreadPool pool(1);
    {
        ScopedTraceContext scope(context);
        pool.Submit([] {
                ScopedSpan span("test.worker.span");
                JournalEmit("test.worker.event", {{"n", 1}});
            })
            .get();
    }
    pool.Shutdown();  // The worker's runtime.pool.job span closes too.

    JsonValue trace;
    ASSERT_TRUE(ParseJsonValue(TraceJson(), &trace));
    const JsonValue* span = nullptr;
    for (const JsonValue& e : trace.Find("traceEvents")->items()) {
        if (e.GetString("name") == "test.worker.span") {
            span = &e;
        }
    }
    ASSERT_NE(span, nullptr);

    std::istringstream lines(JournalJsonl());
    std::string line;
    std::getline(lines, line);  // Header.
    ASSERT_TRUE(std::getline(lines, line));
    JsonValue event;
    ASSERT_TRUE(ParseJsonValue(line, &event));
    EXPECT_EQ(event.GetString("type"), "test.worker.event");

    // One stamping path: same thread id, same request, in both exports.
    EXPECT_EQ(span->GetNumber("tid"), event.GetNumber("tid"));
    EXPECT_EQ(span->Find("args")->GetString("trace"), context.trace_id());
    EXPECT_EQ(event.Find("fields")->GetString("trace"), context.trace_id());
    EXPECT_EQ(event.GetNumber("shard"), event.GetNumber("tid"));
}

TEST_F(TelemetryTest, StatsJsonIsValidAndCarriesMetrics)
{
    GetCounter("test.json.counter").Add(7);
    GetGauge("test.json.gauge").Set(2.5);
    GetHistogram("test.json.hist", {1.0, 2.0}).Record(1.5);
    SetLabel("test.label", "va\"lue");  // Exercise escaping.
    const std::string json = StatsJson();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"xtalk.stats.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
    EXPECT_NE(json.find("va\\\"lue"), std::string::npos);
}

TEST_F(TelemetryTest, TraceJsonIsValidChromeTraceShape)
{
    SetTracingEnabled(true);
    {
        ScopedSpan span("test.chrome", "unit-test");
    }
    const std::string json = TraceJson();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"test.chrome\""), std::string::npos);
    EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
}

TEST_F(TelemetryTest, WriteStatsJsonRoundTripsThroughDisk)
{
    GetCounter("test.disk").Add(1);
    const std::string path = ::testing::TempDir() + "/telemetry_stats.json";
    std::string error;
    ASSERT_TRUE(WriteStatsJson(path, &error)) << error;
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(ValidateJson(buffer.str(), &error)) << error;
    EXPECT_NE(buffer.str().find("test.disk"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TelemetryTest, WriteStatsJsonReportsIoFailure)
{
    std::string error;
    EXPECT_FALSE(WriteStatsJson("/nonexistent-dir/x/y.json", &error));
    EXPECT_FALSE(error.empty());
}

TEST(TelemetryExit, PoolWorkersClosingSpansAtExit)
{
    // The child returns from main while shared-pool workers may still be
    // closing spans; telemetry state must outlive every other static.
    for (int launch = 0; launch < 200; ++launch) {
        FILE* child = ::popen(XTALK_EXIT_CHILD_BIN " 2>&1", "r");
        ASSERT_NE(child, nullptr);
        std::string output;
        char buffer[256];
        while (std::fgets(buffer, sizeof(buffer), child) != nullptr) {
            output += buffer;
        }
        const int status = ::pclose(child);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "launch " << launch << ": status " << status << "\n"
            << output;
        for (const char* marker : {"tcache", "terminate", "histogram bounds"}) {
            ASSERT_EQ(output.find(marker), std::string::npos)
                << "launch " << launch << ":\n" << output;
        }
    }
}

TEST(JsonWriter, HandlesNestingEscapingAndNonFinite)
{
    JsonWriter w;
    w.BeginObject()
        .Key("s")
        .String("a\"b\\c\n\t\x01")
        .Key("arr")
        .BeginArray()
        .Number(uint64_t{18446744073709551615ull})
        .Number(int64_t{-5})
        .Number(1.5)
        .Number(std::numeric_limits<double>::infinity())
        .Bool(true)
        .Null()
        .EndArray()
        .Key("empty")
        .BeginObject()
        .EndObject()
        .EndObject();
    const std::string json = w.str();
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
    // Non-finite doubles degrade to null rather than invalid tokens.
    EXPECT_NE(json.find("1.5,null,true,null"), std::string::npos) << json;
    EXPECT_NE(json.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(ValidateJson, AcceptsValidDocuments)
{
    for (const char* doc :
         {"{}", "[]", "null", "true", "-0.5e+3", "\"\\u00e9\"",
          R"({"a":[1,2,{"b":null}],"c":"d"})", "[[[[]]]]"}) {
        std::string error;
        EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char* doc :
         {"", "{", "}", "[1,]", "{\"a\":}", "{'a':1}", "01", "+1",
          "\"unterminated", "nul", "[1 2]", "{\"a\":1,}", "\x01",
          "{\"a\":1}extra",
          // A high surrogate must pair with a low one.
          "\"\\ud800\\u0041\""}) {
        EXPECT_FALSE(ValidateJson(doc)) << "accepted: " << doc;
    }
}

// -- Histogram quantiles ---------------------------------------------------

TEST_F(TelemetryTest, QuantileOfEmptyHistogramIsZero)
{
    Histogram h({1.0, 10.0, 100.0});
    EXPECT_EQ(h.Quantile(0.0), 0.0);
    EXPECT_EQ(h.Quantile(0.5), 0.0);
    EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST_F(TelemetryTest, QuantileInterpolatesWithinSingleBucket)
{
    Histogram h({10.0, 20.0, 30.0});
    // 10 values in the (10, 20] bucket: quantiles interpolate linearly
    // across the bucket span.
    for (int i = 0; i < 10; ++i) {
        h.Record(15.0);
    }
    EXPECT_GT(h.Quantile(0.5), 10.0);
    EXPECT_LE(h.Quantile(0.5), 20.0);
    EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
    // Interpolation toward the bucket bound stops at the recorded max.
    EXPECT_DOUBLE_EQ(h.Quantile(1.0), 15.0);
    // Quantile(q) is exactly Percentile(100q).
    EXPECT_DOUBLE_EQ(h.Quantile(0.95), h.Percentile(95));
}

TEST_F(TelemetryTest, QuantileOfOverflowBucketReportsRecordedMax)
{
    Histogram h({1.0, 2.0});
    h.Record(0.5);
    h.Record(500.0);   // Overflow bucket (no upper bound).
    h.Record(1000.0);  // Recorded max.
    // With 2/3 of the mass in the unbounded overflow bucket, high
    // quantiles clamp to the recorded max rather than inventing a bound.
    EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(h.Quantile(0.67), 1000.0);
    EXPECT_LE(h.Quantile(0.2), 1.0);
}

TEST_F(TelemetryTest, PercentilesNeverExceedTheSlowestSample)
{
    // The daemon shape that reported p99 = 8460 ms when the slowest
    // request took 4798 ms: a tail of samples inside the (3e3, 10e3]
    // bucket, interpolated toward its upper bound.
    Histogram& h = GetHistogram("test.tail.ms");
    for (int i = 0; i < 20; ++i) {
        h.Record(30.0 + i);
    }
    h.Record(3500.0);
    h.Record(4798.0);
    for (const double p : {50.0, 90.0, 95.0, 99.0, 100.0}) {
        EXPECT_LE(h.Percentile(p), 4798.0) << "p" << p;
        EXPECT_GE(h.Percentile(p), 30.0) << "p" << p;
    }
    EXPECT_DOUBLE_EQ(h.Percentile(100.0), 4798.0);
    JsonValue stats;
    ASSERT_TRUE(ParseJsonValue(StatsJson(), &stats));
    const JsonValue* tail =
        stats.Find("histograms")->Find("test.tail.ms");
    ASSERT_NE(tail, nullptr);
    EXPECT_LE(tail->GetNumber("p99"), tail->GetNumber("max"));
}

TEST_F(TelemetryTest, QuantileMergedAcrossThreadsMatchesSerialRecording)
{
    Histogram& merged = GetHistogram("test.quantile.merged",
                                     {1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&merged] {
            for (int i = 0; i < kPerThread; ++i) {
                merged.Record(static_cast<double>(i % 50));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    Histogram serial({1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
    for (int i = 0; i < kPerThread; ++i) {
        serial.Record(static_cast<double>(i % 50));
    }
    EXPECT_EQ(merged.count(), uint64_t{kThreads} * kPerThread);
    // Every thread records the identical distribution, so bucket shares
    // — and therefore interpolated quantiles — match a serial run.
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
        EXPECT_DOUBLE_EQ(merged.Quantile(q), serial.Quantile(q))
            << "q=" << q;
    }
}

TEST_F(TelemetryTest, StatsJsonReportsTailPercentiles)
{
    GetHistogram("test.p95", {1.0, 2.0}).Record(1.5);
    const std::string json = StatsJson();
    // Dashboards key on the full p50/p90/p95/p99 ladder per histogram.
    EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

// -- Gauge high-watermark --------------------------------------------------

TEST_F(TelemetryTest, GaugeUpdateMaxKeepsThePeak)
{
    Gauge& g = GetGauge("test.watermark");
    g.UpdateMax(3.0);
    g.UpdateMax(7.0);
    g.UpdateMax(5.0);  // Below the peak: must not lower it.
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    Registry::Global().Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, GaugeUpdateMaxUnderContentionKeepsGlobalPeak)
{
    Gauge& g = GetGauge("test.watermark.mt");
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&g, t] {
            for (int i = 0; i < 1000; ++i) {
                g.UpdateMax(static_cast<double>(t * 1000 + i));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_DOUBLE_EQ(g.value(), 7999.0);
}

TEST(JsonParser, OverflowingNumbersSaturateInsteadOfThrowing)
{
    // 1e400 and -1e400 are syntactically valid JSON numbers that do not
    // fit a double. The parser serves untrusted socket input, so it
    // must saturate (strtod semantics) rather than throw out_of_range.
    JsonValue value;
    std::string error;
    ASSERT_TRUE(ParseJsonValue("1e400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_TRUE(std::isinf(value.as_number()));
    EXPECT_GT(value.as_number(), 0.0);

    ASSERT_TRUE(ParseJsonValue("-1e400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_TRUE(std::isinf(value.as_number()));
    EXPECT_LT(value.as_number(), 0.0);

    // Underflow collapses toward zero instead of throwing.
    ASSERT_TRUE(ParseJsonValue("1e-400", &value, &error)) << error;
    ASSERT_TRUE(value.is_number());
    EXPECT_GE(value.as_number(), 0.0);
    EXPECT_LT(value.as_number(), 1e-300);

    // Ordinary numbers are unaffected.
    ASSERT_TRUE(ParseJsonValue("-12.5e2", &value, &error)) << error;
    EXPECT_DOUBLE_EQ(value.as_number(), -1250.0);
}

}  // namespace
}  // namespace xtalk::telemetry
