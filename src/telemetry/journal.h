/**
 * @file
 * Flight-recorder event journal: a bounded, in-memory log of typed,
 * timestamped, key-value events, drained to JSONL.
 *
 * The metrics registry (telemetry.h) answers "what were the totals of
 * this run?"; the journal answers "what happened, in what order?" —
 * which SRB experiment failed, when it was retried, which solver round
 * returned unknown, which pass the verifier rejected, which fault the
 * registry injected. That post-hoc record is what turns a degraded run
 * (exit 0 with quarantined pairs, or exit 3 with a crash dump) into a
 * diagnosable one.
 *
 * Design:
 *  - Per-thread: a journal event is an Event::Kind::kJournal record in
 *    the emitting thread's recorder buffer (recorder.h), so emitters
 *    never contend. The JSONL `shard` names that buffer (it equals the
 *    emitter's tid); within a shard seq and ts_us increase.
 *  - Bounded: at most kDefaultEventCapacity journal events are kept
 *    across all threads; later ones are counted as dropped.
 *  - Cheap when off: JournalEmit() is one relaxed atomic load when the
 *    journal is disabled — same contract as the metrics registry.
 *
 * Enablement: SetJournalEnabled(true), the XTALK_JOURNAL=1 environment
 * variable (read once at process start), or `xtalkc --journal=FILE`
 * (which also arms a terminate-handler dump so crashes leave the
 * journal behind — see ArmCrashDump()).
 *
 * Output (schema xtalk.journal.v1): one JSON object per line. The
 * first line is a header record; every following line is one event:
 *
 *   {"schema":"xtalk.journal.v1","run":"…","events":12,"dropped":0,
 *    "shards":2}
 *   {"ts_us":81.2,"shard":4,"seq":1,"tid":4,"type":"exec.chunk",
 *    "fields":{"job":0,"chunk":2,"sim_ms":1.25}}
 *
 * See docs/OBSERVABILITY.md for the event-type catalogue.
 */
#ifndef XTALK_TELEMETRY_JOURNAL_H
#define XTALK_TELEMETRY_JOURNAL_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace xtalk::telemetry {

namespace internal {
extern std::atomic<bool> g_journal;
}  // namespace internal

/** True when journal sites record (relaxed load; hot-path safe). */
inline bool
JournalEnabled()
{
    return internal::g_journal.load(std::memory_order_relaxed);
}

/** Turn journal recording on or off at runtime. */
void SetJournalEnabled(bool enabled);

/**
 * A typed field value. Numbers keep their type so the JSONL output
 * stays machine-comparable (no "3" vs 3 ambiguity).
 */
class JournalValue {
  public:
    enum class Kind { kString, kUint, kInt, kDouble, kBool };

    JournalValue(const char* v) : kind_(Kind::kString), str_(v) {}
    JournalValue(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}
    JournalValue(double v) : kind_(Kind::kDouble) { num_.d = v; }
    JournalValue(bool v) : kind_(Kind::kBool) { num_.b = v; }
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    JournalValue(T v)
        : kind_(std::is_signed_v<T> ? Kind::kInt : Kind::kUint)
    {
        if constexpr (std::is_signed_v<T>) {
            num_.i = static_cast<int64_t>(v);
        } else {
            num_.u = static_cast<uint64_t>(v);
        }
    }

    Kind kind() const { return kind_; }
    const std::string& str() const { return str_; }
    uint64_t as_uint() const { return num_.u; }
    int64_t as_int() const { return num_.i; }
    double as_double() const { return num_.d; }
    bool as_bool() const { return num_.b; }

    /** JSON token for this value (quoted/escaped for strings). */
    std::string ToJsonToken() const;

  private:
    Kind kind_;
    std::string str_;
    union {
        uint64_t u;
        int64_t i;
        double d;
        bool b;
    } num_ = {0};
};

namespace internal {
/** Record one journal event through the recorder's stamping path. */
void EmitJournal(
    const char* type,
    std::initializer_list<std::pair<const char*, JournalValue>> fields);
}  // namespace internal

/** Serialize header + retained journal events as JSONL (see file
 *  comment), ordered by timestamp. Write it with WriteTextFile(). */
std::string JournalJsonl();

/**
 * Hot-path emit helper: one relaxed atomic load when the journal is
 * disabled, nothing else.
 *
 *   telemetry::JournalEmit("sched.solve", {{"round", round},
 *                                          {"verdict", "sat"}});
 */
inline void
JournalEmit(const char* type,
            std::initializer_list<std::pair<const char*, JournalValue>>
                fields)
{
    if (!JournalEnabled()) {
        return;
    }
    internal::EmitJournal(type, fields);
}

/**
 * Stable identifier of this process run (hex, derived from wall clock
 * and pid on first use; SetRunId overrides). Stamped into the journal
 * header and the run ledger so the two artifacts cross-reference.
 */
std::string RunId();
void SetRunId(const std::string& run_id);

/**
 * Arm a std::terminate-handler that best-effort writes the journal to
 * @p path before the process dies, so crashes (uncaught exceptions,
 * aborts routed through terminate) leave evidence behind. Idempotent;
 * the last path wins. Pass "" to disarm.
 */
void ArmCrashDump(const std::string& path);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_JOURNAL_H
