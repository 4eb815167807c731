/**
 * @file
 * Tests for the flight-recorder journal, the run ledger, and the
 * OpenMetrics exporter: typed event emission, per-thread total ordering
 * and losslessness under concurrency, bounded-capacity drop counting,
 * JSONL validity line by line, ledger record round trips, and
 * OpenMetrics text-format conformance.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"
#include "telemetry/journal.h"
#include "telemetry/json.h"
#include "telemetry/ledger.h"
#include "telemetry/openmetrics.h"
#include "telemetry/recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"

namespace xtalk::telemetry {
namespace {

/** Every test starts from an enabled, empty journal at default size. */
class JournalTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        SetJournalEnabled(true);
        SetEventCapacity(Event::Kind::kJournal, kDefaultEventCapacity);
        ClearEvents();
    }

    void
    TearDown() override
    {
        SetJournalEnabled(false);
        SetEventCapacity(Event::Kind::kJournal, kDefaultEventCapacity);
        ClearEvents();
    }
};

std::vector<std::string>
SplitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

TEST_F(JournalTest, EmitRecordsTypedFields)
{
    JournalEmit("test.event", {{"name", "alpha"},
                               {"count", 7},
                               {"big", uint64_t{1} << 63},
                               {"ratio", 0.25},
                               {"ok", true}});
    const std::vector<Event> events = RecordedEvents(Event::Kind::kJournal);
    ASSERT_EQ(events.size(), 1u);
    const Event& e = events[0];
    EXPECT_EQ(e.name, "test.event");
    EXPECT_EQ(e.seq, 1u);
    ASSERT_EQ(e.fields.size(), 5u);
    EXPECT_EQ(e.fields[0].second.kind(), JournalValue::Kind::kString);
    EXPECT_EQ(e.fields[0].second.str(), "alpha");
    EXPECT_EQ(e.fields[1].second.kind(), JournalValue::Kind::kInt);
    EXPECT_EQ(e.fields[1].second.as_int(), 7);
    EXPECT_EQ(e.fields[2].second.kind(), JournalValue::Kind::kUint);
    EXPECT_EQ(e.fields[2].second.as_uint(), uint64_t{1} << 63);
    EXPECT_EQ(e.fields[3].second.kind(), JournalValue::Kind::kDouble);
    EXPECT_EQ(e.fields[4].second.kind(), JournalValue::Kind::kBool);
}

TEST_F(JournalTest, EmitStampsActiveTraceContext)
{
    TraceContext context;
    ASSERT_TRUE(
        ParseTraceId("0123456789abcdef0123456789abcdef", &context));
    ASSERT_TRUE(ParseSpanId("00000000000000aa", &context.span));
    {
        ScopedTraceContext scope(context);
        JournalEmit("test.traced", {{"n", 1}});
    }
    JournalEmit("test.untraced", {{"n", 2}});
    const std::vector<Event> events =
        RecordedEvents(Event::Kind::kJournal);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].context.trace_id(),
              "0123456789abcdef0123456789abcdef");
    EXPECT_EQ(events[0].context.span_id(), "00000000000000aa");
    // Outside the scope the stamp must vanish with the context.
    EXPECT_EQ(events[1].context.trace_id(), "");
    EXPECT_EQ(events[1].context.span_id(), "");
}

TEST_F(JournalTest, ThreadPoolPropagatesTraceContextIntoWorkers)
{
    TraceContext context;
    ASSERT_TRUE(
        ParseTraceId("feedfacefeedfacefeedfacefeedface", &context));
    context.span = 0x1234;
    runtime::ThreadPool pool(2);
    {
        ScopedTraceContext scope(context);
        std::vector<std::future<void>> done;
        for (int i = 0; i < 8; ++i) {
            done.push_back(pool.Submit(
                [i] { JournalEmit("test.pooled", {{"i", i}}); }));
        }
        for (std::future<void>& future : done) {
            future.get();
        }
    }
    const std::vector<Event> events =
        RecordedEvents(Event::Kind::kJournal);
    ASSERT_EQ(events.size(), 8u);
    for (const Event& event : events) {
        // Every pooled job ran under the submitter's request context,
        // not the worker thread's (empty) default.
        EXPECT_EQ(event.context.trace_id(),
                  "feedfacefeedfacefeedfacefeedface");
    }
}

TEST(TraceContextIds, MintingIsDeterministicWhenSeeded)
{
    SeedTraceIds(7);
    const TraceContext first = MintTraceContext();
    SeedTraceIds(7);
    const TraceContext second = MintTraceContext();
    EXPECT_TRUE(first.valid());
    EXPECT_EQ(first.trace_id(), second.trace_id());
    EXPECT_EQ(first.span, second.span);
    // Documented stream: tools/xtalkd_client.py mints the same ids
    // from the same seed, so cross-language tooling must agree.
    EXPECT_EQ(first.trace_id(), "63cbe1e459320dd7044c3cd7f43c661c");
}

TEST(TraceContextIds, ParseRejectsMalformedAndZeroIds)
{
    TraceContext context;
    EXPECT_FALSE(ParseTraceId("", &context));
    EXPECT_FALSE(ParseTraceId("0123", &context));
    EXPECT_FALSE(
        ParseTraceId("xyzzy6789abcdef0123456789abcdef0", &context));
    EXPECT_FALSE(
        ParseTraceId("00000000000000000000000000000000", &context));
    uint64_t span = 0;
    EXPECT_FALSE(ParseSpanId("123", &span));
    EXPECT_TRUE(ParseSpanId("00000000000000ff", &span));
    EXPECT_EQ(span, 0xffu);
}

TEST_F(JournalTest, DisabledJournalRecordsNothing)
{
    SetJournalEnabled(false);
    JournalEmit("test.off", {{"n", 1}});
    EXPECT_EQ(RetainedEventCount(Event::Kind::kJournal), 0u);
}

TEST_F(JournalTest, BoundedCapacityCountsDrops)
{
    SetEventCapacity(Event::Kind::kJournal, 4);
    for (int i = 0; i < 10; ++i) {
        JournalEmit("test.cap", {{"i", i}});
    }
    EXPECT_EQ(RetainedEventCount(Event::Kind::kJournal), 4u);
    EXPECT_EQ(DroppedEventCount(Event::Kind::kJournal), 6u);
    // The retained events are the FIRST four (bounded log, not a ring).
    const std::vector<Event> events = RecordedEvents(Event::Kind::kJournal);
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].fields[0].second.as_int(),
                  static_cast<int64_t>(i));
    }
}

TEST_F(JournalTest, EightThreadsAreLosslessAndTotallyOrderedPerShard)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i) {
                JournalEmit("test.mt", {{"thread", t}, {"i", i}});
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    // Lossless under the default capacity (8000 < 64Ki).
    EXPECT_EQ(RetainedEventCount(Event::Kind::kJournal),
              uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(DroppedEventCount(Event::Kind::kJournal), 0u);

    // Total order per shard (one per emitting thread): in snapshot
    // order (a stable sort by timestamp), each shard's seq must appear
    // strictly ascending and its timestamps non-decreasing.
    const std::vector<Event> events = RecordedEvents(Event::Kind::kJournal);
    std::map<uint32_t, uint64_t> last_seq;
    std::map<uint32_t, double> last_ts;
    for (const Event& e : events) {
        if (last_seq.count(e.tid)) {
            EXPECT_EQ(e.seq, last_seq[e.tid] + 1)
                << "shard " << e.tid << " out of order";
            EXPECT_GE(e.ts_us, last_ts[e.tid]);
        } else {
            EXPECT_EQ(e.seq, 1u) << "shard " << e.tid;
        }
        last_seq[e.tid] = e.seq;
        last_ts[e.tid] = e.ts_us;
    }
    // Each emitting thread lives in exactly one shard, so its events
    // must also be in program order within the snapshot.
    std::map<int64_t, int64_t> last_i;
    for (const Event& e : events) {
        const int64_t t = e.fields[0].second.as_int();
        const int64_t i = e.fields[1].second.as_int();
        if (last_i.count(t)) {
            EXPECT_EQ(i, last_i[t] + 1) << "thread " << t;
        }
        last_i[t] = i;
    }
}

TEST_F(JournalTest, ToJsonlEmitsValidJsonLineByLine)
{
    JournalEmit("test.json", {{"text", "needs \"escaping\"\n"},
                              {"value", 1.5}});
    JournalEmit("test.json", {{"inf", 1e308 * 10}});  // Non-finite.
    const std::string jsonl = JournalJsonl();
    const std::vector<std::string> lines = SplitLines(jsonl);
    ASSERT_EQ(lines.size(), 3u);  // Header + 2 events.
    for (const std::string& line : lines) {
        std::string error;
        EXPECT_TRUE(ValidateJson(line, &error)) << error << "\n" << line;
    }
    EXPECT_NE(lines[0].find("\"schema\":\"xtalk.journal.v1\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"events\":2"), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"test.json\""), std::string::npos);
}

TEST_F(JournalTest, WriteJsonlRoundTrips)
{
    JournalEmit("test.file", {{"n", 42}});
    const std::string path = ::testing::TempDir() + "journal_rt.jsonl";
    std::string error;
    ASSERT_TRUE(WriteTextFile(path, JournalJsonl(), &error)) << error;
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("xtalk.journal.v1"), std::string::npos);
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"n\":42"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(JournalTest, RunIdIsStableAndOverridable)
{
    const std::string original = RunId();
    EXPECT_FALSE(original.empty());
    EXPECT_EQ(RunId(), original);
    SetRunId("test-run");
    EXPECT_EQ(RunId(), "test-run");
    EXPECT_NE(JournalJsonl().find("\"run\":\"test-run\""),
              std::string::npos);
    SetRunId(original);
}

// -- Run ledger ------------------------------------------------------------

TEST(RunLedger, RecordSerializesAsValidJson)
{
    RunRecord record;
    record.run_id = "abc123";
    record.when = "2026-08-07T12:00:00Z";
    record.config_hash = FnvHex("config");
    record.device = "ibmq_poughkeepsie";
    record.characterization_id = FnvHex("charz");
    record.scheduler = "XtalkSched";
    record.degradation = "greedy";
    record.degradation_reason = "solver timeout";
    record.exit_code = 0;
    record.metrics["compile_ms"] = 31.5;
    record.metrics["solve_ms_p95"] = 18.0;
    const std::string json = RunRecordJson(record);
    std::string error;
    EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
    EXPECT_NE(json.find("\"schema\":\"xtalk.ledger.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"scheduler\":\"XtalkSched\""),
              std::string::npos);
    EXPECT_NE(json.find("\"compile_ms\":31.5"), std::string::npos);
}

TEST(RunLedger, AppendIsAppendOnly)
{
    const std::string path = ::testing::TempDir() + "ledger_rt.jsonl";
    std::remove(path.c_str());
    RunRecord record;
    record.run_id = "r1";
    ASSERT_TRUE(AppendRunRecord(path, record));
    record.run_id = "r2";
    record.exit_code = 3;
    ASSERT_TRUE(AppendRunRecord(path, record));
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"run\":\"r1\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"run\":\"r2\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"exit\":3"), std::string::npos);
    for (const std::string& l : lines) {
        std::string error;
        EXPECT_TRUE(ValidateJson(l, &error)) << error;
    }
    std::remove(path.c_str());
}

TEST(RunLedger, FnvHexIsStableAndFixedWidth)
{
    EXPECT_EQ(FnvHex("abc"), FnvHex("abc"));
    EXPECT_NE(FnvHex("abc"), FnvHex("abd"));
    EXPECT_EQ(FnvHex("").size(), 16u);
    EXPECT_EQ(FnvHex("anything").size(), 16u);
}

// -- OpenMetrics exporter --------------------------------------------------

/** Exporter tests need a clean, enabled registry. */
class OpenMetricsTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        SetEnabled(true);
        Registry::Global().Reset();
    }

    void
    TearDown() override
    {
        SetEnabled(false);
        Registry::Global().Reset();
    }
};

TEST_F(OpenMetricsTest, NameMappingSanitizesAndPrefixes)
{
    EXPECT_EQ(OpenMetricsName("sched.xtalk.solve_ms"),
              "xtalk_sched_xtalk_solve_ms");
    EXPECT_EQ(OpenMetricsName("a-b c"), "xtalk_a_b_c");
    EXPECT_EQ(OpenMetricsName("already_ok"), "xtalk_already_ok");
}

TEST_F(OpenMetricsTest, ExportsAllMetricKindsAndValidates)
{
    GetCounter("test.events").Add(5);
    GetGauge("test.depth").Set(3.5);
    Histogram& h = GetHistogram("test.latency_ms", {1.0, 10.0, 100.0});
    h.Record(0.5);
    h.Record(5.0);
    h.Record(5000.0);  // Overflow bucket.
    SetLabel("tool.device", "ibmq_poughkeepsie");

    const std::string text = OpenMetricsText();
    std::string error;
    EXPECT_TRUE(ValidateOpenMetrics(text, &error)) << error << "\n" << text;

    EXPECT_NE(text.find("xtalk_test_events_total 5"), std::string::npos)
        << text;
    EXPECT_NE(text.find("xtalk_test_depth 3.5"), std::string::npos);
    EXPECT_NE(text.find("xtalk_test_latency_ms_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("xtalk_test_latency_ms_bucket{le=\"10\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("xtalk_test_latency_ms_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("xtalk_test_latency_ms_count 3"),
              std::string::npos);
    EXPECT_NE(text.find(
                  "xtalk_run_info{tool_device=\"ibmq_poughkeepsie\"} 1"),
              std::string::npos);
    // Spec terminator, final line.
    const std::vector<std::string> lines = SplitLines(text);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back(), "# EOF");
}

TEST_F(OpenMetricsTest, WriteOpenMetricsRoundTrips)
{
    GetCounter("test.file.events").Add(1);
    const std::string path = ::testing::TempDir() + "metrics_rt.prom";
    std::string error;
    ASSERT_TRUE(WriteOpenMetrics(path, &error)) << error;
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(ValidateOpenMetrics(buffer.str(), &error)) << error;
    std::remove(path.c_str());
}

TEST(ValidateOpenMetrics, RejectsMalformedExpositions)
{
    // Missing # EOF.
    EXPECT_FALSE(ValidateOpenMetrics("xtalk_a_total 1\n"));
    // Content after # EOF.
    EXPECT_FALSE(ValidateOpenMetrics("# EOF\nxtalk_a_total 1\n"));
    // Malformed sample line.
    EXPECT_FALSE(ValidateOpenMetrics("not a metric line!\n# EOF\n"));
    // Non-cumulative histogram buckets.
    EXPECT_FALSE(ValidateOpenMetrics(
        "xtalk_h_bucket{le=\"1\"} 5\n"
        "xtalk_h_bucket{le=\"+Inf\"} 3\n"
        "xtalk_h_sum 1\nxtalk_h_count 3\n# EOF\n"));
    // Histogram without a +Inf bucket.
    EXPECT_FALSE(ValidateOpenMetrics(
        "xtalk_h_bucket{le=\"1\"} 1\n"
        "xtalk_h_sum 1\nxtalk_h_count 1\n# EOF\n"));
    // _count disagrees with the +Inf bucket.
    EXPECT_FALSE(ValidateOpenMetrics(
        "xtalk_h_bucket{le=\"1\"} 1\n"
        "xtalk_h_bucket{le=\"+Inf\"} 2\n"
        "xtalk_h_sum 1\nxtalk_h_count 5\n# EOF\n"));
}

TEST(ValidateOpenMetrics, AcceptsMinimalValidExposition)
{
    const char* text =
        "# HELP xtalk_a_total help text\n"
        "# TYPE xtalk_a counter\n"
        "xtalk_a_total 1\n"
        "xtalk_h_bucket{le=\"1\"} 1\n"
        "xtalk_h_bucket{le=\"+Inf\"} 2\n"
        "xtalk_h_sum 3.5\n"
        "xtalk_h_count 2\n"
        "# EOF\n";
    std::string error;
    EXPECT_TRUE(ValidateOpenMetrics(text, &error)) << error;
}

}  // namespace
}  // namespace xtalk::telemetry
