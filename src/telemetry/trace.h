/**
 * @file
 * RAII scoped-timer spans, exported as Chrome trace_event JSON (load
 * the file in chrome://tracing or https://ui.perfetto.dev).
 *
 * Every completed span records its wall time into the histogram
 * `span.<name>.ms` (metrics side, see telemetry.h). When tracing is
 * additionally enabled — SetTracingEnabled(true) or XTALK_TRACE=1 —
 * the span is also recorded as an Event::Kind::kSpan event in the
 * recorder (recorder.h), bounded at kDefaultEventCapacity spans; once
 * full, new spans are counted as dropped rather than kept.
 *
 * Disabled cost: a ScopedSpan constructed while telemetry is off reads
 * one atomic flag and does nothing else (no clock call, no
 * allocation).
 */
#ifndef XTALK_TELEMETRY_TRACE_H
#define XTALK_TELEMETRY_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace xtalk::telemetry {

namespace internal {
extern std::atomic<bool> g_tracing;
}  // namespace internal

/** True when completed spans are also recorded as events. */
inline bool
TracingEnabled()
{
    return internal::g_tracing.load(std::memory_order_relaxed);
}

/** Turn span event capture on or off (implies nothing about Enabled). */
void SetTracingEnabled(bool enabled);

/**
 * Register a human-readable name for the calling thread (e.g. "main",
 * "pool-worker-3"). Named threads show up as labeled lanes in the
 * Chrome trace export ("ph":"M" thread_name metadata), so Perfetto
 * renders per-worker timelines instead of anonymous tids. Idempotent;
 * the last name wins.
 */
void SetCurrentThreadName(const std::string& name);

/**
 * RAII span: times the enclosing scope. Usage:
 *
 *   {
 *       telemetry::ScopedSpan span("compile.layout");
 *       ...work...
 *   }  // records span.compile.layout.ms (+ trace event when tracing)
 *
 * The name must outlive the span (string literals in practice).
 */
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name, const char* category = "xtalk");
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** False when telemetry was disabled at construction. */
    bool active() const { return active_; }

  private:
    const char* name_;
    const char* category_;
    std::chrono::steady_clock::time_point start_;
    uint32_t depth_ = 0;
    bool active_;
    /** True when this span opened a profiler frame (profiler.h) and
     *  must close it on destruction, whatever the flags say then. */
    bool profiled_ = false;
};

/** Serialize the recorded spans in Chrome trace_event JSON (object form). */
std::string TraceJson();

/** Write TraceJson() to @p path. False (with @p error set) on failure. */
bool WriteTraceJson(const std::string& path, std::string* error = nullptr);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_TRACE_H
