/**
 * @file
 * The telemetry recorder: the one owner of all telemetry state, behind
 * spans (trace.h), the journal (journal.h), the profiler (profiler.h)
 * and the metrics registry (telemetry.h). Its state is private to
 * src/telemetry (recorder_state.h); this header holds the recorded
 * events and the functions that read and bound them.
 *
 * Lifetime rule: telemetry state is never destroyed; exporters read
 * snapshots. The state is allocated once, on first use, and never
 * freed, so a pool worker that closes a span while `main` returns and
 * other statics are torn down still finds it intact.
 *
 * Each recording thread owns one slot: its telemetry tid (1-based,
 * stable), its name, its span depth, its open profile frames, its
 * profile tree and its event buffer. A completed span (while tracing)
 * and a journal entry are both one Event, stamped by one function with
 * ts_us, seq, tid and the thread's TraceContext, and appended to the
 * emitting thread's buffer. Within a buffer, each kind's seq is dense
 * and ts_us increases.
 *
 * Retention is bounded per kind across all buffers (kDefaultEventCapacity
 * spans plus as many journal events, whatever the thread count): once
 * a kind is full, its newest events are dropped and counted. The cost
 * tree is folded into the slot at span close, never rebuilt from the
 * bounded events, so its call counts stay exact when events drop.
 */
#ifndef XTALK_TELEMETRY_RECORDER_H
#define XTALK_TELEMETRY_RECORDER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/journal.h"
#include "telemetry/trace_context.h"

namespace xtalk::telemetry {

/** One recorded event: a completed span or a journal entry. */
struct Event {
    enum class Kind : uint8_t { kSpan = 0, kJournal = 1 };

    Kind kind = Kind::kSpan;
    std::string name;      ///< Span name or journal event type.
    std::string category;  ///< Span category; empty for journal events.
    double ts_us = 0.0;    ///< Span start or emit time, us since epoch.
    double dur_us = 0.0;   ///< Span duration; 0 for journal events.
    uint64_t seq = 0;      ///< 1-based, per thread buffer and kind.
    uint32_t tid = 0;      ///< Telemetry thread id, naming the buffer.
    uint32_t depth = 0;    ///< Span nesting depth at open (0 = top).
    TraceContext context;  ///< Request the event ran for (if valid).
    std::vector<std::pair<std::string, JournalValue>> fields;
};

/** Default retention bound per event kind, across all threads. */
inline constexpr size_t kDefaultEventCapacity = size_t{1} << 16;

/** Retained events of @p kind from every thread, ordered by end time
 *  (ts_us + dur_us); each thread's own order is kept. */
std::vector<Event> RecordedEvents(Event::Kind kind);
/** Events of @p kind currently retained. */
uint64_t RetainedEventCount(Event::Kind kind);
/** Events of @p kind discarded because their kind was full. */
uint64_t DroppedEventCount(Event::Kind kind);
/** Bound later appends of @p kind; retained events are kept. */
void SetEventCapacity(Event::Kind kind, size_t capacity);
/** Drop every retained event, zero the drop counts, restart seq. */
void ClearEvents();

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_RECORDER_H
