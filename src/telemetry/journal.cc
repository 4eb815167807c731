#include "telemetry/journal.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <set>
#include <sstream>

#include "telemetry/json.h"
#include "telemetry/recorder_state.h"

namespace xtalk::telemetry {

std::string
JournalValue::ToJsonToken() const
{
    switch (kind_) {
      case Kind::kString:
        return "\"" + JsonEscape(str_) + "\"";
      case Kind::kUint:
        return std::to_string(num_.u);
      case Kind::kInt:
        return std::to_string(num_.i);
      case Kind::kDouble: {
        JsonWriter w;
        w.Number(num_.d);  // Handles non-finite values as null.
        return w.str();
      }
      case Kind::kBool:
        return num_.b ? "true" : "false";
    }
    return "null";
}

namespace internal {

void
EmitJournal(const char* type,
            std::initializer_list<std::pair<const char*, JournalValue>>
                fields)
{
    if (!Admit(Event::Kind::kJournal)) {
        return;
    }
    const Clock::time_point now = Clock::now();
    Event event;
    event.kind = Event::Kind::kJournal;
    event.name = type;
    event.fields.assign(fields.begin(), fields.end());
    Record(std::move(event), now, now);
}

}  // namespace internal

std::string
JournalJsonl()
{
    const std::vector<Event> events = RecordedEvents(Event::Kind::kJournal);
    std::set<uint32_t> shards;
    for (const Event& e : events) {
        shards.insert(e.tid);
    }
    std::ostringstream out;
    {
        JsonWriter w;
        w.BeginObject();
        w.Key("schema").String("xtalk.journal.v1");
        w.Key("run").String(RunId());
        w.Key("events").Number(static_cast<uint64_t>(events.size()));
        w.Key("dropped").Number(DroppedEventCount(Event::Kind::kJournal));
        w.Key("shards").Number(static_cast<uint64_t>(shards.size()));
        w.EndObject();
        out << w.str() << "\n";
    }
    for (const Event& e : events) {
        JsonWriter w;
        w.BeginObject();
        w.Key("ts_us").Number(e.ts_us);
        // One shard per emitting thread: its recorder buffer.
        w.Key("shard").Number(static_cast<uint64_t>(e.tid));
        w.Key("seq").Number(e.seq);
        w.Key("tid").Number(static_cast<uint64_t>(e.tid));
        w.Key("type").String(e.name);
        w.EndObject();
        std::string line = w.str();
        // Splice the typed field values in without forcing them all
        // through JsonWriter's double-only Number().
        line.pop_back();  // trailing '}'
        line += ",\"fields\":{";
        bool first = true;
        const auto field = [&](const std::string& key,
                               const JournalValue& value) {
            if (!first) {
                line += ",";
            }
            first = false;
            line += '"';
            line += JsonEscape(key);
            line += "\":";
            line += value.ToJsonToken();
        };
        for (const auto& [key, value] : e.fields) {
            field(key, value);
        }
        // The emitter's trace context, if any, goes last: events emitted
        // outside any request carry no trace/span fields.
        if (e.context.valid()) {
            field("trace", e.context.trace_id());
            field("span", e.context.span_id());
        }
        line += "}}";
        out << line << "\n";
    }
    return out.str();
}

namespace {

// Guarded by the recorder state's mutex.
std::terminate_handler g_previous_terminate = nullptr;
bool g_terminate_installed = false;

[[noreturn]] void
CrashDumpTerminate()
{
    internal::State& state = internal::GlobalState();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        path = state.crash_path;
    }
    if (!path.empty()) {
        // Best effort: the process is dying; never throw from here.
        try {
            WriteTextFile(path, JournalJsonl());
        } catch (...) {
        }
    }
    if (g_previous_terminate) {
        g_previous_terminate();
    }
    std::abort();
}

}  // namespace

std::string
RunId()
{
    internal::State& state = internal::GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.run_id.empty()) {
        // Wall clock + steady clock mix: unique enough to tell runs of
        // the longitudinal workflow apart; no determinism requirement.
        const uint64_t wall = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        const uint64_t mono = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        uint64_t h = wall * 1099511628211ull ^ mono;
        std::ostringstream oss;
        oss << std::hex << h;
        state.run_id = oss.str();
    }
    return state.run_id;
}

void
SetRunId(const std::string& run_id)
{
    internal::State& state = internal::GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.run_id = run_id;
}

void
ArmCrashDump(const std::string& path)
{
    internal::State& state = internal::GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.crash_path = path;
    if (!path.empty() && !g_terminate_installed) {
        g_previous_terminate = std::set_terminate(CrashDumpTerminate);
        g_terminate_installed = true;
    }
}

}  // namespace xtalk::telemetry
