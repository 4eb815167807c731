#include "telemetry/recorder_state.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "telemetry/profiler.h"
#include "telemetry/trace.h"

namespace xtalk::telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_tracing{false};
std::atomic<bool> g_profiling{false};
std::atomic<bool> g_journal{false};
}  // namespace internal

namespace {

bool
EnvFlag(const char* name)
{
    const char* env = std::getenv(name);
    return env != nullptr && std::string(env) != "0";
}

/** Read the XTALK_* switches once, at process start. */
bool
ReadEnvironment()
{
    if (EnvFlag("XTALK_TELEMETRY")) {
        SetEnabled(true);
    }
    if (EnvFlag("XTALK_TRACE")) {
        // Tracing without metrics makes no sense: spans check
        // Enabled() first.
        SetTracingEnabled(true);
        SetEnabled(true);
    }
    if (EnvFlag("XTALK_PROFILE")) {
        SetProfilingEnabled(true);
    }
    if (EnvFlag("XTALK_JOURNAL")) {
        SetJournalEnabled(true);
    }
    return true;
}
[[maybe_unused]] const bool g_environment_read = ReadEnvironment();

thread_local internal::Slot* t_slot = nullptr;

}  // namespace

void
SetEnabled(bool enabled)
{
    internal::g_enabled.store(enabled);
}

void
SetTracingEnabled(bool enabled)
{
    internal::g_tracing.store(enabled);
}

void
SetJournalEnabled(bool enabled)
{
    internal::g_journal.store(enabled);
}

void
SetProfilingEnabled(bool enabled)
{
    if (enabled && !ProfilingEnabled()) {
        internal::State& state = internal::GlobalState();
        std::lock_guard<std::mutex> lock(state.mu);
        state.profile_epoch = internal::Clock::now();
    }
    internal::g_profiling.store(enabled);
    if (enabled) {
        // Frames are fed by ScopedSpan, which is inert while the metric
        // subsystem is off.
        SetEnabled(true);
    }
}

namespace internal {

State&
GlobalState()
{
    static State* const state = new State();
    return *state;
}

Slot&
LocalSlot()
{
    if (t_slot == nullptr) {
        State& state = GlobalState();
        std::lock_guard<std::mutex> lock(state.mu);
        t_slot = &state.slots.emplace_back(
            static_cast<uint32_t>(state.slots.size() + 1));
    }
    return *t_slot;
}

bool
Admit(Event::Kind kind)
{
    Budget& budget = GlobalState().budgets[static_cast<size_t>(kind)];
    // Drop-newest: a reservation past the capacity is undone at once, so
    // every attempt is either kept or counted as dropped.
    if (budget.retained.fetch_add(1, std::memory_order_relaxed) <
        budget.capacity.load(std::memory_order_relaxed)) {
        return true;
    }
    budget.retained.fetch_sub(1, std::memory_order_relaxed);
    budget.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
Record(Event event, Clock::time_point start, Clock::time_point end)
{
    State& state = GlobalState();
    Slot& slot = LocalSlot();
    event.ts_us = Micros(start - state.epoch);
    event.dur_us = Micros(end - start);
    event.tid = slot.tid;
    event.context = CurrentTraceContext();
    std::lock_guard<std::mutex> lock(slot.mu);
    event.seq = slot.next_seq[static_cast<size_t>(event.kind)]++;
    slot.events.push_back(std::move(event));
}

}  // namespace internal

std::vector<Event>
RecordedEvents(Event::Kind kind)
{
    internal::State& state = internal::GlobalState();
    std::vector<Event> events;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        for (internal::Slot& slot : state.slots) {
            std::lock_guard<std::mutex> slot_lock(slot.mu);
            std::copy_if(slot.events.begin(), slot.events.end(),
                         std::back_inserter(events),
                         [kind](const Event& e) { return e.kind == kind; });
        }
    }
    // A thread appends in end-time order, so a stable sort by end time
    // interleaves the buffers without reordering any one of them.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                         return a.ts_us + a.dur_us < b.ts_us + b.dur_us;
                     });
    return events;
}

uint64_t
RetainedEventCount(Event::Kind kind)
{
    return internal::GlobalState()
        .budgets[static_cast<size_t>(kind)]
        .retained.load(std::memory_order_relaxed);
}

uint64_t
DroppedEventCount(Event::Kind kind)
{
    return internal::GlobalState()
        .budgets[static_cast<size_t>(kind)]
        .dropped.load(std::memory_order_relaxed);
}

void
SetEventCapacity(Event::Kind kind, size_t capacity)
{
    internal::GlobalState().budgets[static_cast<size_t>(kind)].capacity.store(
        capacity);
}

void
ClearEvents()
{
    internal::State& state = internal::GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    for (internal::Slot& slot : state.slots) {
        std::lock_guard<std::mutex> slot_lock(slot.mu);
        slot.events.clear();
        slot.next_seq = {1, 1};
    }
    for (internal::Budget& budget : state.budgets) {
        budget.retained.store(0);
        budget.dropped.store(0);
    }
}

}  // namespace xtalk::telemetry
