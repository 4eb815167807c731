/**
 * @file
 * Child process for TelemetryExit.PoolWorkersClosingSpansAtExit: turns
 * every telemetry switch on, runs spans and journal events on the
 * shared pool, and returns from main as soon as the futures resolve —
 * while pool workers may still be closing their runtime.pool.job spans.
 */
#include <future>
#include <vector>

#include "runtime/thread_pool.h"
#include "telemetry/journal.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

int
main()
{
    using namespace xtalk;
    telemetry::SetEnabled(true);
    telemetry::SetTracingEnabled(true);
    telemetry::SetProfilingEnabled(true);
    telemetry::SetJournalEnabled(true);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 16; ++i) {
        done.push_back(runtime::ThreadPool::Shared()->Submit([i] {
            telemetry::ScopedSpan span("exit.job");
            telemetry::JournalEmit("exit.job", {{"i", i}});
        }));
    }
    for (std::future<void>& future : done) {
        future.get();
    }
    return 0;
}
