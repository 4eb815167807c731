/**
 * @file
 * What the untraced and the traced run share: options, the timed
 * request exchange, the ledger of checks, and the workload set-ups.
 */
#ifndef SVCBENCH_BENCH_H
#define SVCBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "requests.h"
#include "service/engine.h"
#include "stats.h"

namespace svcbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for saved characterizations and the span log. */
    std::string out_dir = ".";
    /** Hardware threads: warm_compile runs this many closed-loop
     *  clients, mixed_simulate one fewer. */
    int cpus = 1;
};

/** Device of mixed_simulate's cold stream. */
inline constexpr const char* kMixedColdDevice = "johannesburg";

/** What a run reports: the last stdout line is built from this. */
struct Outcome {
    long attempted = 0;
    long failed = 0;
    /** Metrics of the result line, in print order. */
    std::vector<Metric> metrics;
    /** Printed for people only (sample counts, lateness, shares). */
    std::vector<Metric> notes;
    std::vector<std::string> failures;
};

/** One request through the public codec and the engine. */
struct Exchange {
    xtalk::service::ServiceResponse response;
    /** FromJson + Handle + ToJson, milliseconds. */
    double latency_ms = 0.0;
};

Exchange Send(xtalk::service::Engine& engine, const std::string& wire);

double MsSince(std::chrono::steady_clock::time_point start);

/**
 * Thread-safe record of every request and check of a run. Responses are
 * checked against the references in requests.h; quality is taken from
 * the first response of each distinct request, so it does not depend on
 * how many repeats a run fits in.
 */
class Ledger {
  public:
    /**
     * Check one response: status ok; the cache hit it should have; a
     * deterministic projection equal to the first of the same request;
     * Hidden Shift's most frequent outcome; quality bookkeeping. With
     * @p score_schedule false its success probability is not averaged
     * (a re-send of a request already counted).
     */
    void Response(const Template& t, const Exchange& exchange,
                  bool expect_cache_hit, bool score_schedule = true);

    /** Record one independent check; false adds a failure. */
    void Check(bool ok, const std::string& what);

    /** Adds saved-characterization pair scores (see ScorePairs). */
    void AddPairScore(const PairScore& score);

    void Fill(Outcome* outcome) const;

    std::vector<double> success_probabilities() const;
    std::vector<double> hidden_shift_success() const;
    std::vector<double> qaoa_cross_entropy() const;
    PairScore pairs() const;

  private:
    void FailLocked(const std::string& what);

    mutable std::mutex mutex_;
    long attempted_ = 0;
    long failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::string> projections_;
    std::map<std::string, double> success_probability_;
    std::map<std::string, double> hidden_shift_success_;
    std::map<std::string, double> qaoa_cross_entropy_;
    PairScore pairs_;
};

/** Load the characterization a request saved, check it is the one the
 *  response names, and score its pairs against the ground truth. */
void ScoreSavedCharacterization(const std::string& device,
                                const std::string& path,
                                const std::string& characterization_id,
                                Ledger* ledger);

/** Path a request saves its device's characterization to. */
std::string SavePath(const Options& options, const std::string& tag,
                     const std::string& device);

/** Process statics: both Clifford groups, the shared pool and the
 *  devices. The untraced run leaves them to its first cold request. */
void WarmProcessStatics();

Outcome RunUntraced(const Options& options);
Outcome RunTraced(const Options& options);

}  // namespace svcbench

#endif  // SVCBENCH_BENCH_H
