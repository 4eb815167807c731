/**
 * @file
 * Hierarchical in-process profiler: per-thread frame stacks fed by the
 * ScopedSpan machinery (trace.h), aggregated into a merged cost tree.
 *
 * Where the metrics registry answers "how long did X take in total?"
 * (one flat histogram per span name) and the Chrome trace answers "when
 * did each X happen?", the profiler answers "WHO spent the time": every
 * completed span is attributed to its full ancestor path, so the same
 * `sim.statevector.run` work shows up separately under
 * `tool.characterize` and under `tool.simulate`. The merged tree
 * reports, per node:
 *
 *  - calls        completed spans at this path,
 *  - inclusive    wall time inside the span, children included,
 *  - exclusive    inclusive minus the children's inclusive (self time).
 *
 * Aggregation model: each thread's recorder slot (recorder.h) holds a
 * private tree keyed by span name, folded at span close;
 * ProfileSnapshot() merges the per-thread trees by name under a
 * synthetic "process" root whose inclusive time is the wall time since
 * profiling was enabled (or last ResetProfile()). Worker-thread frames
 * (e.g. `runtime.pool.job` -> `runtime.executor.chunk` ->
 * `sim.statevector.run`) therefore land next to main-thread frames in
 * one tree, and the tree's *structure* — node paths and call counts —
 * is deterministic for a fixed workload at any thread count; only the
 * times vary.
 *
 * Exports: ProfileJson() (schema xtalk.profile.v1) and
 * CollapsedStacks(), the `a;b;c <value>` text consumed by standard
 * flamegraph tooling (value = exclusive microseconds, rounded).
 *
 * Enablement: SetProfilingEnabled(true), the XTALK_PROFILE=1
 * environment variable (read once at process start), or
 * `xtalkc --profile FILE`. Turning profiling on also turns the metric
 * subsystem on — frames are fed by ScopedSpan, which is inert while
 * telemetry is disabled. Disabled cost at a span site is one extra
 * relaxed atomic load on the already-active path, nothing on the
 * disabled path (see BM_ProfilerDisabled).
 */
#ifndef XTALK_TELEMETRY_PROFILER_H
#define XTALK_TELEMETRY_PROFILER_H

#include <atomic>
#include <string>
#include <vector>

namespace xtalk::telemetry {

namespace internal {
extern std::atomic<bool> g_profiling;
}  // namespace internal

/** True when spans also feed the profiler (relaxed load). */
inline bool
ProfilingEnabled()
{
    return internal::g_profiling.load(std::memory_order_relaxed);
}

/**
 * Turn profiling on or off. Enabling also enables the metric subsystem
 * (SetEnabled(true)) because frames are collected by ScopedSpan, which
 * is a no-op while telemetry is off. Disabling does not disable
 * metrics.
 */
void SetProfilingEnabled(bool enabled);

/** One node of the merged cost tree. Children are sorted by name so a
 *  snapshot is structurally deterministic. */
struct ProfileNode {
    std::string name;
    uint64_t calls = 0;        ///< Completed spans at this path.
    double inclusive_us = 0.0; ///< Wall time inside the span, children incl.
    double exclusive_us = 0.0; ///< inclusive - sum(children inclusive), >= 0.
    std::vector<ProfileNode> children;
};

/**
 * Merge every thread's tree under a synthetic "process" root. The root
 * has calls == 1 and inclusive == wall microseconds since profiling
 * was enabled (or the last ResetProfile()); its exclusive time is the
 * wall time not covered by any top-level span. Frames still open when
 * the snapshot is taken contribute nothing (only completed spans are
 * attributed).
 */
ProfileNode ProfileSnapshot();

/**
 * Serialize ProfileSnapshot():
 * {"schema":"xtalk.profile.v1","enabled":...,"wall_ms":...,
 *  "threads":N,"root":{"name","calls","inclusive_ms","exclusive_ms",
 *  "children":[...]}}
 */
std::string ProfileJson();

/**
 * Collapsed-stack text: one `path;to;node <exclusive_us>` line per
 * tree node with nonzero rounded exclusive time, root included, sorted
 * by path. Feed to inferno / flamegraph.pl / speedscope.
 */
std::string CollapsedStacks();

/** Drop all recorded frames and restart the wall-clock epoch. Open
 *  frames keep accumulating into the fresh trees when they exit. */
void ResetProfile();

/** Write ProfileJson() to @p path. False (with @p error set) on failure. */
bool WriteProfileJson(const std::string& path, std::string* error = nullptr);
/** Write CollapsedStacks() to @p path. False on failure. */
bool WriteCollapsedStacks(const std::string& path,
                          std::string* error = nullptr);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_PROFILER_H
