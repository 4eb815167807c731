/**
 * @file
 * The untraced run: the two workloads that produce the end-to-end
 * metrics, and the pieces the traced run reuses (exchange, ledger,
 * set-ups).
 */
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "characterization/io.h"
#include "clifford/group.h"
#include "common/rng.h"
#include "metrics/cross_entropy.h"
#include "runtime/thread_pool.h"

namespace svcbench {

using Clock = std::chrono::steady_clock;
using xtalk::service::Engine;
using xtalk::service::ServiceRequest;
using xtalk::service::ServiceResponse;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kWarmSetups = 2;
/** mixed_simulate: the cold stream is due every this many seconds, so
 *  characterization fills about a third of a 30 s run on 4 cores. */
constexpr double kColdPeriodSeconds = 10.0;

/** Hands out catalogue indices: each cycle is a seeded permutation of
 *  the whole catalogue, so every run sends the same mix. */
class Dispenser {
  public:
    Dispenser(size_t size, uint64_t seed) : order_(size), rng_(seed) {}

    size_t
    Next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (position_ == 0) {
            for (size_t i = 0; i < order_.size(); ++i) {
                order_[i] = i;
            }
            rng_.Shuffle(order_);
        }
        const size_t index = order_[position_];
        position_ = (position_ + 1) % order_.size();
        return index;
    }

  private:
    std::mutex mutex_;
    std::vector<size_t> order_;
    xtalk::Rng rng_;
    size_t position_ = 0;
};

/** Warm samples a closed loop collects, past its deadline if the
 *  machine is slow, so that warm_ms_p90 (10 samples beyond) reports. */
constexpr size_t kMinWarmSamples = 110;

struct ClosedLoopResult {
    std::vector<double> latency_ms;
    /** Ok responses completed within measured_s. */
    long ok = 0;
    /** Up to the deadline, or to the kMinWarmSamples-th response. */
    double measured_s = 0.0;
};

/** @p clients closed-loop clients sending warm requests from @p start
 *  until @p deadline; requests in flight then are waited for. */
ClosedLoopResult
RunClosedLoop(Engine& engine, const std::vector<Template>& catalogue,
              uint64_t seed, int clients, Clock::time_point start,
              Clock::time_point deadline, Ledger* ledger)
{
    Dispenser dispenser(catalogue.size(), seed);
    std::mutex mutex;
    ClosedLoopResult result;
    std::vector<Clock::time_point> ok_at;
    Clock::time_point enough_at = start;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (Clock::now() >= deadline &&
                        result.latency_ms.size() >= kMinWarmSamples) {
                        return;
                    }
                }
                const Template& t = catalogue[dispenser.Next()];
                const Exchange exchange = Send(engine, t.wire);
                const Clock::time_point done = Clock::now();
                ledger->Response(t, exchange, /*expect_cache_hit=*/true);
                std::lock_guard<std::mutex> lock(mutex);
                result.latency_ms.push_back(exchange.latency_ms);
                if (result.latency_ms.size() == kMinWarmSamples) {
                    enough_at = done;
                }
                if (exchange.response.code == xtalk::StatusCode::kOk) {
                    ok_at.push_back(done);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const Clock::time_point end = std::max(deadline, enough_at);
    result.ok = std::count_if(ok_at.begin(), ok_at.end(),
                              [&](Clock::time_point t) { return t <= end; });
    result.measured_s = std::chrono::duration<double>(end - start).count();
    return result;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Raw samples of one untraced run. */
struct Samples {
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    std::vector<double> setup_s;
    /** Ok warm responses within measured_s (warm_rps). */
    long warm_ok = 0;
    double measured_s = 0.0;
};

Clock::time_point
DeadlineAfter(Clock::time_point start, double seconds)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

/**
 * The warm workloads' set-up, kWarmSetups times over: a fresh engine
 * whose cache is filled for @p devices, one cold request after another.
 * Returns the last engine; fill latencies go to @p fill_ms.
 */
std::unique_ptr<Engine>
SetUpWarmEngine(const Options& options,
                const std::vector<std::string>& devices, Ledger* ledger,
                Samples* samples, std::vector<double>* fill_ms,
                std::map<std::string, std::string>* characterization_ids)
{
    std::unique_ptr<Engine> engine;
    for (int i = 0; i < kWarmSetups; ++i) {
        engine.reset();
        const Clock::time_point start = Clock::now();
        engine = std::make_unique<Engine>();
        for (const std::string& device : devices) {
            const Template fill =
                FillRequest(device, SavePath(options, "fill", device));
            const Exchange exchange = Send(*engine, fill.wire);
            ledger->Response(fill, exchange, /*expect_cache_hit=*/false,
                             /*score_schedule=*/false);
            fill_ms->push_back(exchange.latency_ms);
            (*characterization_ids)[device] =
                exchange.response.characterization_id;
        }
        samples->setup_s.push_back(MsSince(start) / 1000.0);
    }
    return engine;
}

/** Turn the samples into the end-to-end metrics (each workload reports
 *  every one). A metric that cannot be reported fails the run. */
void
EndToEnd(const Samples& s, const Ledger& ledger, Outcome* out)
{
    std::vector<std::string> missing;
    auto add = [&](const std::string& name, double value,
                   const std::string& unit, size_t count) {
        out->metrics.push_back({name, value, unit, count});
    };
    auto percentile = [&](const std::string& name,
                          const std::vector<double>& samples, double p) {
        if (samples.empty()) {
            missing.push_back(name + " (no samples)");
            return;
        }
        const Percentile q = NearestRank(samples, p);
        if (!q.reportable) {
            missing.push_back(name + " (only " + std::to_string(q.beyond) +
                              " samples beyond it)");
            return;
        }
        add(name, q.value, "ms", q.count);
    };
    auto mean = [&](const std::string& name, const std::vector<double>& v,
                    const std::string& unit) {
        if (v.empty()) {
            missing.push_back(name + " (no samples)");
            return;
        }
        double sum = 0.0;
        for (double x : v) {
            sum += x;
        }
        add(name, sum / static_cast<double>(v.size()), unit, v.size());
    };

    percentile("cold_ms_p50", s.cold_ms, 50.0);
    percentile("warm_ms_p50", s.warm_ms, 50.0);
    percentile("warm_ms_p90", s.warm_ms, 90.0);
    add("warm_rps", static_cast<double>(s.warm_ok) / s.measured_s, "1/s",
        static_cast<size_t>(s.warm_ok));
    const std::vector<double> sp = ledger.success_probabilities();
    if (sp.empty()) {
        missing.push_back("success_prob_geomean (no schedules)");
    } else {
        add("success_prob_geomean", GeoMean(sp), "ratio", sp.size());
    }
    mean("hidden_shift_success", ledger.hidden_shift_success(), "ratio");
    mean("qaoa_cross_entropy", ledger.qaoa_cross_entropy(), "nats");
    const PairScore pairs = ledger.pairs();
    if (pairs.truth == 0 || pairs.flagged == 0) {
        missing.push_back("xtalk_pair_recall/precision (no pairs)");
    } else {
        add("xtalk_pair_recall",
            static_cast<double>(pairs.truth_found) / pairs.truth, "ratio",
            static_cast<size_t>(pairs.truth));
        add("xtalk_pair_precision",
            static_cast<double>(pairs.flagged_true) / pairs.flagged, "ratio",
            static_cast<size_t>(pairs.flagged));
    }
    add("setup_s", Median(s.setup_s), "s", s.setup_s.size());
    // Printed only: glibc's per-thread arenas make the peak depend on
    // thread interleaving, by up to a quarter between runs.
    out->notes.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});

    if (!s.warm_ms.empty()) {
        const Percentile p99 = NearestRank(s.warm_ms, 99.0);
        if (p99.reportable) {
            out->notes.push_back({"warm_ms_p99", p99.value, "ms", p99.count});
        }
        out->notes.push_back(
            {"warm_ms_max", NearestRank(s.warm_ms, 100.0).value, "ms",
             s.warm_ms.size()});
    }
    if (!s.cold_ms.empty()) {
        out->notes.push_back({"cold_ms_max",
                              NearestRank(s.cold_ms, 100.0).value, "ms",
                              s.cold_ms.size()});
    }
    out->notes.push_back({"measured_s", s.measured_s, "s", 1});
    for (const std::string& name : missing) {
        out->failures.push_back("metric not reportable: " + name);
        ++out->failed;
        ++out->attempted;
    }
}

Outcome
WarmCompile(const Options& options)
{
    Ledger ledger;
    Samples samples;
    std::map<std::string, std::string> characterization_ids;
    // The three cache fills of each set-up are this workload's cold
    // requests.
    const std::unique_ptr<Engine> engine =
        SetUpWarmEngine(options, DeviceNames(), &ledger, &samples,
                        &samples.cold_ms, &characterization_ids);

    const std::vector<Template> catalogue = WarmCompileCatalogue();
    const Clock::time_point start = Clock::now();
    ClosedLoopResult loop = RunClosedLoop(
        *engine, catalogue, options.seed, options.cpus, start,
        DeadlineAfter(start, options.seconds), &ledger);
    samples.warm_ms = std::move(loop.latency_ms);
    samples.warm_ok = loop.ok;
    samples.measured_s = loop.measured_s;

    // Quality pass, after the clock: this workload simulates nothing, so
    // its Hidden Shift and small QAOA requests are re-sent with shots.
    for (const Template& t : WarmCompileQualityCatalogue()) {
        ledger.Response(t, Send(*engine, t.wire), /*expect_cache_hit=*/true,
                        /*score_schedule=*/false);
    }
    for (const std::string& device : DeviceNames()) {
        ScoreSavedCharacterization(device, SavePath(options, "fill", device),
                                   characterization_ids.at(device), &ledger);
    }
    Outcome outcome;
    EndToEnd(samples, ledger, &outcome);
    ledger.Fill(&outcome);
    return outcome;
}

Outcome
MixedSimulate(const Options& options)
{
    Ledger ledger;
    Samples samples;
    const std::vector<std::string> warm_devices{"poughkeepsie"};
    std::map<std::string, std::string> characterization_ids;
    std::vector<double> fill_ms;
    const std::unique_ptr<Engine> engine =
        SetUpWarmEngine(options, warm_devices, &ledger, &samples, &fill_ms,
                        &characterization_ids);

    const std::vector<Template> catalogue = MixedWarmCatalogue();
    const Template cold = ColdRequest(
        kMixedColdDevice, SavePath(options, "cold", kMixedColdDevice));
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = DeadlineAfter(start, options.seconds);

    // Open-loop cold stream: one request on a fresh engine per period,
    // timed from when it was due.
    std::vector<double> lateness_ms;
    std::string cold_characterization_id;
    std::thread cold_stream([&] {
        for (int k = 0;; ++k) {
            const Clock::time_point due =
                DeadlineAfter(start, k * kColdPeriodSeconds);
            if (due >= deadline) {
                break;
            }
            std::this_thread::sleep_until(due);
            lateness_ms.push_back(MsSince(due));
            Engine fresh;
            const Exchange exchange = Send(fresh, cold.wire);
            ledger.Response(cold, exchange, /*expect_cache_hit=*/false);
            samples.cold_ms.push_back(MsSince(due));
            cold_characterization_id = exchange.response.characterization_id;
        }
    });
    const int clients = std::max(1, options.cpus - 1);
    ClosedLoopResult loop = RunClosedLoop(*engine, catalogue, options.seed,
                                          clients, start, deadline, &ledger);
    cold_stream.join();
    samples.warm_ms = std::move(loop.latency_ms);
    samples.warm_ok = loop.ok;
    samples.measured_s = loop.measured_s;

    ScoreSavedCharacterization(warm_devices[0],
                               SavePath(options, "fill", warm_devices[0]),
                               characterization_ids.at(warm_devices[0]),
                               &ledger);
    ScoreSavedCharacterization(kMixedColdDevice,
                               SavePath(options, "cold", kMixedColdDevice),
                               cold_characterization_id, &ledger);
    Outcome outcome;
    EndToEnd(samples, ledger, &outcome);
    outcome.notes.push_back({"cold_lateness_ms_max",
                             NearestRank(lateness_ms, 100.0).value, "ms",
                             lateness_ms.size()});
    ledger.Fill(&outcome);
    return outcome;
}

}  // namespace

Exchange
Send(Engine& engine, const std::string& wire)
{
    const Clock::time_point start = Clock::now();
    ServiceRequest request;
    std::string error;
    Exchange exchange;
    if (!ServiceRequest::FromJson(wire, &request, &error)) {
        exchange.response = xtalk::service::MakeErrorResponse(
            request, xtalk::StatusCode::kError, "bad request line: " + error);
    } else {
        exchange.response = engine.Handle(request);
    }
    exchange.response.ToJson(true);  // the line a client would receive
    exchange.latency_ms = MsSince(start);
    return exchange;
}

double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

void
Ledger::FailLocked(const std::string& what)
{
    ++failed_;
    if (failures_.size() < 20) {
        failures_.push_back(what);
    }
}

void
Ledger::Check(bool ok, const std::string& what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
        FailLocked(what);
    }
}

void
Ledger::Response(const Template& t, const Exchange& exchange,
                 bool expect_cache_hit, bool score_schedule)
{
    const ServiceResponse& r = exchange.response;
    const std::string projection = r.ToJson(false);
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (r.code != xtalk::StatusCode::kOk) {
        FailLocked(t.label + ": status " + r.status() + ": " + r.error);
        return;
    }
    if (r.cache_hit != expect_cache_hit) {
        FailLocked(t.label + ": cache_hit " + std::to_string(r.cache_hit));
        return;
    }
    const std::string key = t.label + (expect_cache_hit ? "|hit" : "|miss");
    const auto [first, inserted] = projections_.emplace(key, projection);
    if (!inserted) {
        if (first->second != projection) {
            FailLocked(key + ": projection differs from the first response");
        }
        return;
    }
    // First response of this request: the reference checks.
    if (score_schedule && r.has_estimate) {
        success_probability_[t.label] = r.success_probability;
    }
    if (t.request.simulate_shots == 0) {
        return;
    }
    std::map<uint64_t, int> histogram;
    if (!ParseCounts(r.counts, &histogram)) {
        FailLocked(t.label + ": unparseable counts");
        return;
    }
    int shots = 0;
    auto top = histogram.begin();
    for (auto it = histogram.begin(); it != histogram.end(); ++it) {
        shots += it->second;
        if (it->second > top->second) {
            top = it;
        }
    }
    if (shots != t.request.simulate_shots) {
        FailLocked(t.label + ": counts hold " + std::to_string(shots) +
                   " shots");
        return;
    }
    if (t.family == Family::kHiddenShift) {
        if (top->first != t.hidden_shift) {
            FailLocked(t.label + ": most frequent outcome " +
                       std::to_string(top->first) + " is not the shift " +
                       std::to_string(t.hidden_shift));
        }
        const auto hit = histogram.find(t.hidden_shift);
        hidden_shift_success_[t.label] =
            hit == histogram.end() ? 0.0
                                   : static_cast<double>(hit->second) / shots;
    } else if (t.family == Family::kQaoa) {
        const std::vector<double> ideal = IdealDistribution(t.logical);
        std::vector<double> measured(ideal.size(), 0.0);
        for (const auto& [bits, count] : histogram) {
            if (bits >= measured.size()) {
                FailLocked(t.label + ": outcome outside the clbits");
                return;
            }
            measured[bits] = static_cast<double>(count) / shots;
        }
        qaoa_cross_entropy_[t.label] = xtalk::CrossEntropy(measured, ideal);
    }
}

void
Ledger::AddPairScore(const PairScore& score)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pairs_.truth += score.truth;
    pairs_.truth_found += score.truth_found;
    pairs_.flagged += score.flagged;
    pairs_.flagged_true += score.flagged_true;
}

namespace {

std::vector<double>
Values(const std::map<std::string, double>& by_label)
{
    std::vector<double> out;
    for (const auto& [label, value] : by_label) {
        out.push_back(value);
    }
    return out;
}

}  // namespace

std::vector<double>
Ledger::success_probabilities() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Values(success_probability_);
}

std::vector<double>
Ledger::hidden_shift_success() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Values(hidden_shift_success_);
}

std::vector<double>
Ledger::qaoa_cross_entropy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Values(qaoa_cross_entropy_);
}

PairScore
Ledger::pairs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pairs_;
}

void
Ledger::Fill(Outcome* outcome) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    outcome->attempted += attempted_;
    outcome->failed += failed_;
    outcome->failures.insert(outcome->failures.end(), failures_.begin(),
                             failures_.end());
    outcome->notes.push_back(
        {"failed_share",
         static_cast<double>(outcome->failed) /
             static_cast<double>(std::max(1L, outcome->attempted)),
         "ratio", static_cast<size_t>(outcome->attempted)});
}

void
ScoreSavedCharacterization(const std::string& device,
                           const std::string& path,
                           const std::string& characterization_id,
                           Ledger* ledger)
{
    std::string measured_on;
    xtalk::CrosstalkCharacterization saved;
    try {
        saved = xtalk::LoadCharacterization(path, &measured_on);
    } catch (const std::exception& e) {
        ledger->Check(false, device + ": cannot load " + path + ": " +
                                 e.what());
        return;
    }
    ledger->Check(saved.SnapshotId() == characterization_id &&
                      measured_on == DeviceByName(device).name(),
                  device + ": saved characterization is not the one the "
                           "response names");
    const PairScore score = ScorePairs(DeviceByName(device), saved);
    // Ground truth the characterization must recover: on the seed it
    // finds 5/5, 5/5 and 6/7 of the 1-hop high-crosstalk pairs.
    ledger->Check(score.truth > 0 && score.truth_found * 5 >= score.truth * 4,
                  device + ": recall " + std::to_string(score.truth_found) +
                      "/" + std::to_string(score.truth) + " is below 0.8");
    ledger->AddPairScore(score);
}

std::string
SavePath(const Options& options, const std::string& tag,
         const std::string& device)
{
    return options.out_dir + "/charz-" + tag + "-" + device + ".txt";
}

void
WarmProcessStatics()
{
    xtalk::CliffordGroup::Shared(1);
    xtalk::CliffordGroup::Shared(2);
    xtalk::runtime::ThreadPool::Shared();
    for (const std::string& device : DeviceNames()) {
        DeviceByName(device);
    }
}

Outcome
RunUntraced(const Options& options)
{
    if (options.workload == "warm_compile") {
        return WarmCompile(options);
    }
    if (options.workload == "mixed_simulate") {
        return MixedSimulate(options);
    }
    throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace svcbench
