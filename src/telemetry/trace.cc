#include "telemetry/trace.h"

#include <map>

#include "telemetry/json.h"
#include "telemetry/profiler.h"
#include "telemetry/recorder_state.h"

namespace xtalk::telemetry {

namespace {

using internal::FrameNode;
using internal::Slot;

/** Open a profile frame for @p name inside the slot's innermost one. */
void
EnterFrame(Slot& slot, const char* name)
{
    std::lock_guard<std::mutex> lock(slot.mu);
    FrameNode* parent = slot.frames.empty() ? &slot.tree : slot.frames.back();
    auto& child = parent->children[name];
    if (!child) {
        child = std::make_unique<FrameNode>();
    }
    slot.frames.push_back(child.get());
}

/** Close the innermost frame (RAII keeps frames LIFO per thread),
 *  folding its duration into the cost tree. */
void
ExitFrame(Slot& slot, double dur_us)
{
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.frames.empty()) {
        return;  // Unbalanced exit (cleared mid-span); drop the sample.
    }
    FrameNode* node = slot.frames.back();
    slot.frames.pop_back();
    node->calls += 1;
    node->inclusive_us += dur_us;
}

}  // namespace

void
SetCurrentThreadName(const std::string& name)
{
    Slot& slot = internal::LocalSlot();
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.name = name;
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category), active_(Enabled())
{
    if (!active_) {
        return;
    }
    Slot& slot = internal::LocalSlot();
    depth_ = slot.depth++;
    if (ProfilingEnabled()) {
        profiled_ = true;
        EnterFrame(slot, name_);
    }
    start_ = internal::Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_) {
        return;
    }
    const auto end = internal::Clock::now();
    Slot& slot = internal::LocalSlot();
    --slot.depth;
    const double dur_us = internal::Micros(end - start_);
    if (profiled_) {
        ExitFrame(slot, dur_us);
    }
    GetHistogram("span." + std::string(name_) + ".ms").Record(dur_us / 1e3);
    if (TracingEnabled() && internal::Admit(Event::Kind::kSpan)) {
        Event event;
        event.name = name_;
        event.category = category_;
        event.depth = depth_;
        internal::Record(std::move(event), start_, end);
    }
}

std::string
TraceJson()
{
    const std::vector<Event> events = RecordedEvents(Event::Kind::kSpan);
    JsonWriter w;
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
    // Metadata ("ph":"M") first: the process name plus one thread_name
    // record per registered thread, so Perfetto labels the lanes
    // ("main", "pool-worker-3") instead of showing bare tids.
    w.BeginObject();
    w.Key("name").String("process_name");
    w.Key("ph").String("M");
    w.Key("pid").Number(uint64_t{1});
    w.Key("args").BeginObject();
    w.Key("name").String("xtalk");
    w.EndObject();
    w.EndObject();
    {
        internal::State& state = internal::GlobalState();
        std::lock_guard<std::mutex> lock(state.mu);
        for (Slot& slot : state.slots) {
            std::lock_guard<std::mutex> slot_lock(slot.mu);
            if (slot.name.empty()) {
                continue;
            }
            w.BeginObject();
            w.Key("name").String("thread_name");
            w.Key("ph").String("M");
            w.Key("pid").Number(uint64_t{1});
            w.Key("tid").Number(static_cast<uint64_t>(slot.tid));
            w.Key("args").BeginObject();
            w.Key("name").String(slot.name);
            w.EndObject();
            w.EndObject();
        }
    }
    // One async lane per request trace ("ph":"b"/"e" pairs keyed by
    // the trace id): Perfetto renders each request as its own track
    // spanning first span start to last span end, so concurrent
    // compiles through the daemon separate visually instead of
    // interleaving anonymously on the worker lanes.
    struct Extent {
        double begin_us;
        double end_us;
    };
    std::map<std::string, Extent> requests;
    for (const Event& e : events) {
        if (!e.context.valid()) {
            continue;
        }
        auto [it, inserted] = requests.try_emplace(
            e.context.trace_id(), Extent{e.ts_us, e.ts_us + e.dur_us});
        if (!inserted) {
            it->second.begin_us = std::min(it->second.begin_us, e.ts_us);
            it->second.end_us =
                std::max(it->second.end_us, e.ts_us + e.dur_us);
        }
    }
    for (const auto& [trace, extent] : requests) {
        const std::string label = "request " + trace.substr(0, 8);
        for (const bool begin : {true, false}) {
            w.BeginObject();
            w.Key("name").String(label);
            w.Key("cat").String("request");
            w.Key("ph").String(begin ? "b" : "e");
            w.Key("id").String(trace);
            w.Key("pid").Number(uint64_t{1});
            w.Key("tid").Number(uint64_t{0});
            w.Key("ts").Number(begin ? extent.begin_us : extent.end_us);
            w.Key("args").BeginObject();
            w.Key("trace").String(trace);
            w.EndObject();
            w.EndObject();
        }
    }
    for (const Event& e : events) {
        w.BeginObject();
        w.Key("name").String(e.name);
        w.Key("cat").String(e.category);
        w.Key("ph").String("X");
        w.Key("pid").Number(uint64_t{1});
        w.Key("tid").Number(static_cast<uint64_t>(e.tid));
        w.Key("ts").Number(e.ts_us);
        w.Key("dur").Number(e.dur_us);
        if (e.context.valid()) {
            w.Key("args").BeginObject();
            w.Key("trace").String(e.context.trace_id());
            w.EndObject();
        }
        w.EndObject();
    }
    w.EndArray();
    w.Key("otherData").BeginObject();
    w.Key("schema").String("xtalk.trace.v1");
    w.Key("dropped").Number(DroppedEventCount(Event::Kind::kSpan));
    w.EndObject();
    w.EndObject();
    return w.str();
}

bool
WriteTraceJson(const std::string& path, std::string* error)
{
    return WriteTextFile(path, TraceJson() + "\n", error);
}

}  // namespace xtalk::telemetry
