/**
 * @file
 * The recorder's state, private to src/telemetry: the one State object,
 * the per-thread slots and the stamping path. See recorder.h for the
 * design and the lifetime rule.
 */
#ifndef XTALK_TELEMETRY_RECORDER_STATE_H
#define XTALK_TELEMETRY_RECORDER_STATE_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/recorder.h"
#include "telemetry/telemetry.h"

namespace xtalk::telemetry {

namespace internal {

using Clock = std::chrono::steady_clock;

/** One node of a thread's cost tree, children keyed by span name. */
struct FrameNode {
    uint64_t calls = 0;
    double inclusive_us = 0.0;
    std::map<std::string, std::unique_ptr<FrameNode>> children;
};

/** A recording thread's state. `depth` is touched by the owner only;
 *  `mu` guards the rest against exporters. */
struct Slot {
    explicit Slot(uint32_t id) : tid(id) {}

    const uint32_t tid;
    uint32_t depth = 0;
    std::mutex mu;
    std::string name;
    std::array<uint64_t, 2> next_seq = {1, 1};  ///< Per Event::Kind.
    std::vector<Event> events;
    FrameNode tree;  ///< Sentinel; top-level frames are its children.
    std::vector<FrameNode*> frames;  ///< Open profile frames.
};

/** Retention bound and counts for one event kind. */
struct Budget {
    std::atomic<size_t> capacity{kDefaultEventCapacity};
    std::atomic<uint64_t> retained{0};
    std::atomic<uint64_t> dropped{0};
};

/** All telemetry state; see the lifetime rule in recorder.h. */
struct State {
    const Clock::time_point epoch = Clock::now();

    std::mutex mu;  ///< Guards the members up to metrics_mu.
    std::deque<Slot> slots;  ///< Index i holds tid i + 1.
    Clock::time_point profile_epoch = epoch;
    std::string run_id;
    std::string crash_path;
    std::array<Budget, 2> budgets;  ///< Indexed by Event::Kind.

    std::mutex metrics_mu;  ///< Guards the registry maps below.
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
    std::map<std::string, std::string> labels;
    /** Default histogram bounds, ms: 1us to ~2min in 3x steps. */
    const std::vector<double> time_buckets_ms = {
        0.001, 0.003, 0.01, 0.03, 0.1,  0.3,  1.0,  3.0,  10.0,
        30.0,  100.0, 300.0, 1e3, 3e3, 10e3, 30e3, 120e3};
};

/** The process's one State, created on first use and never freed. */
State& GlobalState();

/** The calling thread's slot, created on first use. */
Slot& LocalSlot();

/** Microseconds in @p d. */
inline double
Micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Reserve room for one event of @p kind. False, counted as a drop,
 *  when the kind is full; callers then build no event at all. */
bool Admit(Event::Kind kind);

/**
 * The one stamping path for spans and journal events, after Admit():
 * set ts_us and dur_us from @p start / @p end, tid and seq from the
 * calling thread's slot, and the thread's current TraceContext, then
 * append @p event to that slot.
 */
void Record(Event event, Clock::time_point start, Clock::time_point end);

}  // namespace internal

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_RECORDER_STATE_H
