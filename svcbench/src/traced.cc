/**
 * @file
 * The traced run: per-layer numbers, timed from outside the library.
 *
 * Each replayed request is sent once through Engine::Handle, then
 * replayed by calling the modules' public functions in the order the
 * engine calls them (codec, ParseQasm, BuildCharacterizationPlan and
 * CrosstalkCharacterizer::Run on a cache miss, one single-pass
 * PassManager per pipeline pass on one CompilationState, Executor::Run,
 * ToQasm). The replay's qasm, counts and characterization id must equal
 * the engine's, which shows both measure the same work. The replay runs
 * twice, with and without span recording, to measure the tracing
 * overhead and to check that the work counters repeat exactly. Kernel
 * probes warm up outside the timed loop and report the median of a
 * fixed number of repetitions.
 */
#include <algorithm>
#include <memory>
#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "characterization/rb.h"
#include "circuit/qasm.h"
#include "circuit/qasm_parser.h"
#include "clifford/group.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "experiments/experiments.h"
#include "runtime/executor.h"
#include "runtime/thread_pool.h"
#include "scheduler/xtalk_scheduler.h"
#include "sim/gate_matrices.h"
#include "sim/noisy_simulator.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"
#include "spans.h"
#include "telemetry/journal.h"
#include "telemetry/trace.h"

namespace svcbench {

using Clock = std::chrono::steady_clock;
using xtalk::service::Engine;
using xtalk::service::ServiceRequest;
using xtalk::service::ServiceResponse;

namespace {

/** Pipeline passes, in the order MakeDefaultPipeline runs them. */
const std::vector<std::string> kPasses{"layout", "route", "schedule",
                                       "lower-barriers", "estimate"};
const std::vector<std::string> kPhases{"parse",    "characterize", "schedule",
                                       "simulate", "emit",         "other"};
const std::vector<std::string> kMembers{"xtalk", "anneal", "greedy",
                                        "parallel", "serial"};
/** Layers whose span self time is reported (span names start with the
 *  layer; "request" is the replay's own glue). */
const std::vector<std::string> kLayers{"request", "service",
                                       "characterization", "compiler",
                                       "runtime", "circuit"};
/** Kernel probes: fixed repetitions after warm-up, median reported. */
constexpr int kProbeWarmups = 3;
constexpr int kProbeReps = 15;
/** Micro-timings (codec, parse, emit) per request. */
constexpr int kMicroReps = 5;
/** Schedules run single-threaded for the trajectory rate. */
constexpr int kTrajectorySchedules = 8;
constexpr int kTrajectoryShots = 256;

template <typename F>
double
MedianMs(int warmups, int reps, F&& body)
{
    for (int i = 0; i < warmups; ++i) {
        body();
    }
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        body();
        ms.push_back(MsSince(start));
    }
    return Median(ms);
}

/** Two-qubit gates a circuit costs in CNOTs (a SWAP is three). */
int
CnotCount(const xtalk::Circuit& circuit)
{
    int count = 0;
    for (const xtalk::Gate& gate : circuit.gates()) {
        if (gate.IsTwoQubitUnitary()) {
            count += gate.kind == xtalk::GateKind::kSwap ? 3 : 1;
        }
    }
    return count;
}

xtalk::CompilerOptions
CompilerOptionsFor(const ServiceRequest& request)
{
    xtalk::CompilerOptions options;
    if (!xtalk::ParseLayoutPolicy(request.layout, &options.layout) ||
        !xtalk::ParseSchedulerPolicy(request.scheduler, &options.scheduler)) {
        throw std::invalid_argument("unknown policy in " + request.id);
    }
    options.xtalk.omega = request.omega;
    options.portfolio = request.schedulers;
    options.verify_passes = request.verify_passes;
    return options;
}

/** Deterministic work of one replay; two replays must agree exactly. */
struct WorkCounts {
    int swaps_inserted = 0;
    long shots = 0;
    int chunks = 0;
    int refinement_rounds = 0;
    int solver_builds = 0;
    int candidate_pairs = 0;

    bool operator==(const WorkCounts&) const = default;
};

struct ReplayResult {
    std::string qasm;
    std::string counts;
    std::string characterization_id;
    WorkCounts work;
    /** Wall time outside characterization (the overhead comparison). */
    double compile_ms = 0.0;
    std::map<std::string, double> pass_ms;
    double xtalk_schedule_ms = 0.0;
    bool simulated = false;
    xtalk::runtime::ExecutionResult execution;
    std::string device;
    std::optional<xtalk::ScheduledCircuit> schedule;
};

/** Everything the traced run accumulates. */
struct Layers {
    double group2_build_ms = 0.0;
    std::vector<double> plan_ms, run_ms;
    long experiments = 0, batches = 0, rb_executions = 0;
    double characterization_s = 0.0;
    std::map<std::string, std::vector<double>> pass_ms;
    std::vector<double> xtalk_ms;
    long rounds = 0, solver_builds = 0, candidate_pairs = 0, swaps = 0;
    long shots = 0;
    std::vector<double> exec_wall_ms, exec_sim_ms, job_wait_ms;
    std::map<std::string, std::vector<double>> member_ms;
    std::vector<double> parse_us, emit_us, codec_us;
    std::map<std::string, double> phase_ms;
    long phase_requests = 0;
    long cache_hits = 0, cache_misses = 0;
    /** Per request: traced replay against the untraced one, which ran
     *  right before or after it. */
    std::vector<double> overhead_pct;
    /** (device, schedule) of the first replays, for the trajectory
     *  probe. */
    std::vector<std::pair<std::string, xtalk::ScheduledCircuit>> schedules;
};

class Replayer {
  public:
    Replayer(SpanLog* spans, Layers* layers, Ledger* ledger)
        : spans_(spans), layers_(layers), ledger_(ledger)
    {
    }

    /**
     * Send @p t through @p engine, replay it twice (spans on, then off,
     * in alternating order) and check all three agree. @p miss: the
     * engine measures the characterization for this request, so the
     * first replay does too.
     */
    ServiceResponse
    Request(Engine& engine, const Template& t, bool miss)
    {
        const Exchange exchange = Send(engine, t.wire);
        ledger_->Response(t, exchange, !miss);
        const ServiceResponse& response = exchange.response;
        AddPhases(response);

        // Alternate which replay records spans, except that a miss is
        // always traced first: that replay is the one characterizing.
        const bool traced_first = (replays_++ % 2) == 0 || miss;
        ReplayResult first = Replay(t, miss, traced_first);
        ReplayResult second = Replay(t, false, !traced_first);
        const ReplayResult& traced = traced_first ? first : second;
        const ReplayResult& untraced = traced_first ? second : first;
        layers_->overhead_pct.push_back(
            100.0 * (traced.compile_ms - untraced.compile_ms) /
            std::max(1e-9, untraced.compile_ms));

        ledger_->Check(first.qasm == response.qasm &&
                           first.counts == response.counts &&
                           first.characterization_id ==
                               response.characterization_id,
                       t.label + ": replay differs from Engine::Handle");
        ledger_->Check(first.work == second.work &&
                           first.qasm == second.qasm &&
                           first.counts == second.counts,
                       t.label + ": work counters differ between two "
                                 "replays of the same request");
        Accumulate(first);
        MicroTimings(t, response);
        return response;
    }

  private:
    ReplayResult
    Replay(const Template& t, bool characterize, bool traced)
    {
        spans_->set_enabled(traced);
        SpanLog::SetRequest(t.label);
        ReplayResult out;
        SpanLog::Scope request_span(*spans_, "request");
        Clock::time_point start = Clock::now();
        ServiceRequest request;
        {
            SpanLog::Scope span(*spans_, "service.codec");
            if (!ServiceRequest::FromJson(t.wire, &request)) {
                throw std::runtime_error("cannot parse " + t.wire);
            }
        }
        std::optional<xtalk::Circuit> circuit;
        {
            SpanLog::Scope span(*spans_, "circuit.parse");
            circuit = xtalk::ParseQasm(request.qasm);
        }
        const xtalk::Device& device = DeviceByName(request.device);
        if (characterize) {
            out.compile_ms += MsSince(start);
            Characterize(device, request.device);
            start = Clock::now();
        }
        const xtalk::CrosstalkCharacterization& characterization =
            characterizations_.at(request.device);
        out.characterization_id = characterization.SnapshotId();

        xtalk::CompilationState state(device, characterization, *circuit,
                                      CompilerOptionsFor(request));
        for (const std::string& pass : kPasses) {
            SpanLog::Scope span(*spans_, "compiler.pass." + pass);
            const Clock::time_point pass_start = Clock::now();
            xtalk::PassManager manager;
            manager.AddPass(pass);
            manager.Run(state);
            out.pass_ms[pass] = MsSince(pass_start);
        }
        out.work.swaps_inserted =
            (CnotCount(state.ScheduleSource()) - CnotCount(*circuit)) / 3;
        if (request.simulate_shots > 0) {
            SpanLog::Scope span(*spans_, "runtime.executor");
            xtalk::runtime::Executor executor(device);
            xtalk::runtime::ExecutionJob job;
            job.schedule = *state.schedule;
            job.spec = xtalk::RunSpec{request.simulate_shots, std::nullopt, 16};
            out.execution = executor.Run(std::move(job));
            out.counts = out.execution.counts.ToString();
            out.simulated = true;
            out.work.shots = out.execution.counts.shots();
            out.work.chunks = out.execution.chunks;
        }
        {
            SpanLog::Scope span(*spans_, "circuit.emit");
            std::optional<xtalk::Circuit> emitted = state.executable;
            if (!emitted && state.schedule) {
                emitted = state.schedule->ToCircuit();
            }
            if (emitted) {
                out.qasm = xtalk::ToQasm(*emitted);
            }
        }
        out.compile_ms += MsSince(start);
        out.device = request.device;
        out.schedule = state.schedule;

        // The SMT layer on its own: XtalkScheduler on the routed circuit
        // at the request's omega (whatever policy the request named).
        {
            SpanLog::Scope span(*spans_, "scheduler.xtalk");
            xtalk::XtalkSchedulerOptions options;
            options.omega = request.omega;
            xtalk::XtalkScheduler scheduler(device, characterization,
                                            options);
            const Clock::time_point solve_start = Clock::now();
            scheduler.Schedule(state.ScheduleSource());
            out.xtalk_schedule_ms = MsSince(solve_start);
            out.work.refinement_rounds = scheduler.stats().refinement_rounds;
            out.work.solver_builds = scheduler.stats().solver_builds;
            out.work.candidate_pairs = scheduler.stats().candidate_pairs;
        }
        spans_->set_enabled(true);
        return out;
    }

    /** A cache miss, as CharacterizeDevice runs it for the engine. */
    void
    Characterize(const xtalk::Device& device, const std::string& name)
    {
        const xtalk::RbConfig config = xtalk::BenchRbConfig();
        xtalk::CharacterizationPlan plan;
        {
            SpanLog::Scope span(*spans_, "characterization.plan");
            const Clock::time_point start = Clock::now();
            xtalk::Rng rng(1);  // EngineOptions::characterization_seed
            plan = xtalk::BuildCharacterizationPlan(
                device.topology(),
                xtalk::CharacterizationPolicy::kOneHopBinPacked, rng);
            layers_->plan_ms.push_back(MsSince(start));
        }
        {
            xtalk::Rng rng(1);
            const xtalk::CharacterizationPlan again =
                xtalk::BuildCharacterizationPlan(
                    device.topology(),
                    xtalk::CharacterizationPolicy::kOneHopBinPacked, rng);
            ledger_->Check(again.batches == plan.batches,
                           name + ": characterization plan is not "
                                  "reproducible");
        }
        xtalk::CharacterizationRunReport report;
        {
            SpanLog::Scope span(*spans_, "characterization.run");
            const Clock::time_point start = Clock::now();
            xtalk::CrosstalkCharacterizer characterizer(
                device, xtalk::CharacterizerConfig{.rb = config});
            characterizations_[name] = characterizer.Run(plan, &report);
            const double ms = MsSince(start);
            layers_->run_ms.push_back(ms);
            layers_->characterization_s += ms / 1000.0;
        }
        ledger_->Check(report.clean(), name + ": characterization retried "
                                              "or quarantined experiments");
        std::set<xtalk::EdgeId> couplers;
        for (const xtalk::ExperimentBin& bin : plan.batches) {
            for (const xtalk::GatePair& pair : bin) {
                couplers.insert(pair.first);
                couplers.insert(pair.second);
            }
        }
        const long jobs_per_experiment =
            static_cast<long>(config.lengths.size()) *
            config.sequences_per_length;
        layers_->experiments += plan.NumExperiments();
        layers_->batches += plan.NumBatches();
        layers_->rb_executions +=
            (static_cast<long>(couplers.size()) + plan.NumExperiments()) *
            jobs_per_experiment;
    }

    void
    Accumulate(const ReplayResult& r)
    {
        for (const auto& [pass, ms] : r.pass_ms) {
            layers_->pass_ms[pass].push_back(ms);
        }
        layers_->xtalk_ms.push_back(r.xtalk_schedule_ms);
        layers_->rounds += r.work.refinement_rounds;
        layers_->solver_builds += r.work.solver_builds;
        layers_->candidate_pairs += r.work.candidate_pairs;
        layers_->swaps += r.work.swaps_inserted;
        layers_->shots += r.work.shots;
        if (r.simulated) {
            const double wall = r.execution.wall_ms;
            const double sim = r.execution.sim_ms;
            const int lanes = std::min(
                r.execution.chunks,
                xtalk::runtime::ThreadPool::Shared()->num_threads());
            layers_->exec_wall_ms.push_back(wall);
            layers_->exec_sim_ms.push_back(sim);
            // Wall time beyond what the job's chunks needed had each
            // found a free worker: time spent waiting for the pool.
            layers_->job_wait_ms.push_back(
                std::max(0.0, wall - sim / std::max(1, lanes)));
        }
        if (r.schedule && static_cast<int>(layers_->schedules.size()) <
                              kTrajectorySchedules) {
            layers_->schedules.emplace_back(r.device, *r.schedule);
        }
    }

    void
    AddPhases(const ServiceResponse& response)
    {
        for (const auto& phase : response.phases) {
            layers_->phase_ms[phase.phase] += phase.ms;
        }
        ++layers_->phase_requests;
        for (const auto& member : response.portfolio) {
            layers_->member_ms[member.member].push_back(member.wall_ms);
        }
    }

    void
    MicroTimings(const Template& t, const ServiceResponse& response)
    {
        layers_->codec_us.push_back(
            1000.0 * MedianMs(1, kMicroReps, [&] {
                ServiceRequest request;
                ServiceRequest::FromJson(t.wire, &request);
                response.ToJson(true);
            }));
        std::optional<xtalk::Circuit> circuit;
        layers_->parse_us.push_back(1000.0 * MedianMs(1, kMicroReps, [&] {
                                        circuit =
                                            xtalk::ParseQasm(t.request.qasm);
                                    }));
        layers_->emit_us.push_back(1000.0 * MedianMs(1, kMicroReps, [&] {
                                       xtalk::ToQasm(*circuit);
                                   }));
    }

    SpanLog* spans_;
    Layers* layers_;
    Ledger* ledger_;
    std::map<std::string, xtalk::CrosstalkCharacterization>
        characterizations_;
    int replays_ = 0;
};

/** Samples the shared pool's accessors every millisecond. */
class PoolSampler {
  public:
    PoolSampler()
        : pool_(xtalk::runtime::ThreadPool::Shared()),
          thread_([this] { Loop(); })
    {
    }

    ~PoolSampler() { Stop(); }

    PoolSampler(const PoolSampler&) = delete;
    PoolSampler& operator=(const PoolSampler&) = delete;

    void
    Stop()
    {
        stop_ = true;
        if (thread_.joinable()) {
            thread_.join();
        }
    }

    size_t max_queue_depth() const { return max_depth_; }

    double
    utilization() const
    {
        return samples_ == 0 ? 0.0
                             : busy_sum_ / (static_cast<double>(samples_) *
                                            pool_->num_threads());
    }

  private:
    void
    Loop()
    {
        while (!stop_) {
            max_depth_ = std::max(max_depth_, pool_->QueueDepth());
            busy_sum_ += pool_->BusyWorkers();
            ++samples_;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    std::shared_ptr<xtalk::runtime::ThreadPool> pool_;
    std::atomic<bool> stop_{false};
    size_t max_depth_ = 0;
    double busy_sum_ = 0.0;
    long samples_ = 0;
    std::thread thread_;
};

/** StateVector kernels at 12 qubits: ns per amplitude per gate. */
void
KernelProbes(const Layers& layers, Outcome* out)
{
    constexpr int kQubits = 12;
    constexpr int kSweeps = 20;
    xtalk::StateVector state(kQubits);
    const xtalk::Matrix h = xtalk::MatH();
    const xtalk::Matrix cx = xtalk::MatCX();
    const double amps = static_cast<double>(state.dimension());
    const double one = MedianMs(kProbeWarmups, kProbeReps, [&] {
        for (int s = 0; s < kSweeps; ++s) {
            for (int q = 0; q < kQubits; ++q) {
                state.Apply1Q(q, h);
            }
        }
    });
    const double two = MedianMs(kProbeWarmups, kProbeReps, [&] {
        for (int s = 0; s < kSweeps; ++s) {
            for (int q = 0; q + 1 < kQubits; ++q) {
                state.Apply2Q(q, q + 1, cx);
            }
        }
    });
    out->metrics.push_back({"sim.sv_apply1q_ns_per_amp",
                            one * 1e6 / (kSweeps * kQubits * amps), "ns",
                            kProbeReps});
    out->metrics.push_back({"sim.sv_apply2q_ns_per_amp",
                            two * 1e6 / (kSweeps * (kQubits - 1) * amps),
                            "ns", kProbeReps});

    // Single-threaded trajectories over the workload's own schedules.
    double trajectory_ms = 0.0;
    size_t runs = 0;
    for (const auto& [name, schedule] : layers.schedules) {
        xtalk::NoisySimulator simulator(DeviceByName(name));
        trajectory_ms += MedianMs(1, 3, [&] {
            simulator.Run(schedule, xtalk::RunSpec{kTrajectoryShots});
        });
        ++runs;
    }
    out->metrics.push_back(
        {"sim.trajectory_shots_per_s",
         runs * kTrajectoryShots / (trajectory_ms / 1000.0), "1/s", runs});

    // CHP stabilizer on one 4-qubit SRB schedule of a 1-hop pair.
    const xtalk::Device& device = DeviceByName("poughkeepsie");
    xtalk::RbRunner runner(device, xtalk::BenchRbConfig());
    xtalk::Rng rng(7);
    const auto pair = device.topology().EdgePairsAtDistance(1).front();
    const xtalk::ScheduledCircuit srb =
        runner.BuildSrbSchedule({pair.first, pair.second}, 12, rng);
    xtalk::StabilizerSimulator stabilizer(device);
    constexpr int kStabilizerShots = 512;
    const double stab_ms = MedianMs(1, 7, [&] {
        stabilizer.Run(srb, xtalk::RunSpec{kStabilizerShots});
    });
    out->metrics.push_back({"sim.stabilizer_shots_per_s",
                            kStabilizerShots / (stab_ms / 1000.0), "1/s", 7});

    // Telemetry as the service runs it here: recording off.
    constexpr int kCalls = 100000;
    const double span_ms = MedianMs(1, 7, [&] {
        for (int i = 0; i < kCalls; ++i) {
            xtalk::telemetry::ScopedSpan span("svcbench.probe");
        }
    });
    const double journal_ms = MedianMs(1, 7, [&] {
        for (int i = 0; i < kCalls; ++i) {
            xtalk::telemetry::JournalEmit("svcbench.probe", {{"i", i}});
        }
    });
    out->metrics.push_back(
        {"telemetry.span_ns", span_ms * 1e6 / kCalls, "ns", 7});
    out->metrics.push_back(
        {"telemetry.journal_emit_ns", journal_ms * 1e6 / kCalls, "ns", 7});
}

void
LayerMetrics(const Layers& l, const SpanLog& spans, Outcome* out)
{
    auto add = [&](const std::string& name, double value,
                   const std::string& unit, size_t count) {
        out->metrics.push_back({name, value, unit, count});
    };
    auto median = [&](const std::string& name,
                      const std::vector<double>& values,
                      const std::string& unit) {
        if (values.empty()) {
            out->failures.push_back("no samples for " + name);
            ++out->failed;
            ++out->attempted;
            return;
        }
        add(name, Median(values), unit, values.size());
    };
    median("characterization.run_ms", l.run_ms, "ms");
    median("characterization.plan_ms", l.plan_ms, "ms");
    add("characterization.experiments", l.experiments, "count", 1);
    add("characterization.batches", l.batches, "count", 1);
    add("characterization.rb_executions", l.rb_executions, "count", 1);
    add("characterization.experiments_per_s",
        l.experiments / std::max(1e-9, l.characterization_s), "1/s",
        l.run_ms.size());
    add("clifford.group2_build_ms", l.group2_build_ms, "ms", 1);
    add("sim.shots", l.shots, "count", 1);
    median("runtime.executor_wall_ms", l.exec_wall_ms, "ms");
    median("runtime.executor_sim_ms", l.exec_sim_ms, "ms");
    median("runtime.job_wait_ms", l.job_wait_ms, "ms");
    median("scheduler.xtalk_schedule_ms", l.xtalk_ms, "ms");
    add("scheduler.refinement_rounds", l.rounds, "count", 1);
    add("scheduler.solver_builds", l.solver_builds, "count", 1);
    add("scheduler.candidate_pairs", l.candidate_pairs, "count", 1);
    // A solve round: each Schedule call's first solve plus each
    // refinement round after it.
    double xtalk_total = 0.0;
    for (double ms : l.xtalk_ms) {
        xtalk_total += ms;
    }
    const long solve_rounds =
        static_cast<long>(l.xtalk_ms.size()) + l.rounds;
    add("scheduler.ms_per_round",
        xtalk_total / static_cast<double>(std::max(1L, solve_rounds)), "ms",
        static_cast<size_t>(solve_rounds));
    for (const std::string& member : kMembers) {
        const auto it = l.member_ms.find(member);
        median("scheduler.member_ms." + member,
               it == l.member_ms.end() ? std::vector<double>{} : it->second,
               "ms");
    }
    for (const std::string& pass : kPasses) {
        const auto it = l.pass_ms.find(pass);
        median("compiler.pass_ms." + pass,
               it == l.pass_ms.end() ? std::vector<double>{} : it->second,
               "ms");
    }
    add("transpile.swaps_inserted", l.swaps, "count", 1);
    median("circuit.parse_us", l.parse_us, "us");
    median("circuit.emit_us", l.emit_us, "us");
    median("service.api_codec_us", l.codec_us, "us");
    add("service.cache_hits", l.cache_hits, "count", 1);
    add("service.cache_misses", l.cache_misses, "count", 1);
    add("service.cache_hit_ratio",
        static_cast<double>(l.cache_hits) /
            std::max(1L, l.cache_hits + l.cache_misses),
        "ratio", static_cast<size_t>(l.cache_hits + l.cache_misses));
    for (const std::string& phase : kPhases) {
        const auto it = l.phase_ms.find(phase);
        add("service.phase." + phase + "_ms",
            (it == l.phase_ms.end() ? 0.0 : it->second) /
                std::max(1L, l.phase_requests),
            "ms", static_cast<size_t>(l.phase_requests));
    }
    median("trace.overhead_pct", l.overhead_pct, "%");
    const std::vector<SpanRecord> records = spans.records();
    add("trace.spans", static_cast<double>(records.size()), "count", 1);
    const std::map<std::string, double> self = spans.SelfMs();
    for (const std::string& layer : kLayers) {
        double ms = 0.0;
        for (const auto& [name, value] : self) {
            if (name.rfind(layer, 0) == 0) {
                ms += value;
            }
        }
        add("trace.self_ms." + layer, ms, "ms", 1);
    }
}

/** Share of a response's wall time spent in @p phase. */
double
PhaseShare(const ServiceResponse& response, const std::string& phase)
{
    double ms = 0.0;
    for (const auto& entry : response.phases) {
        if (entry.phase == phase) {
            ms += entry.ms;
        }
    }
    return ms / std::max(1e-9, response.run_ms);
}

/** True when @p phase is the largest summed phase of @p responses. */
bool
LargestPhase(const std::vector<ServiceResponse>& responses,
             const std::string& phase)
{
    std::map<std::string, double> total;
    for (const ServiceResponse& response : responses) {
        for (const auto& entry : response.phases) {
            total[entry.phase] += entry.ms;
        }
    }
    const auto largest = std::max_element(
        total.begin(), total.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    return largest != total.end() && largest->first == phase;
}

void
CountCache(const Engine& engine, Layers* layers)
{
    layers->cache_hits += static_cast<long>(engine.cache().hits());
    layers->cache_misses += static_cast<long>(engine.cache().misses());
}

/** A portfolio compile on a Poughkeepsie-warm engine, so every workload
 *  reports each member's time. */
void
PortfolioProbe(Engine& engine, Replayer* replayer)
{
    replayer->Request(engine,
                      MakeQaoa("poughkeepsie", 5, 7, {"portfolio", 0.5}, 0),
                      /*miss=*/false);
}

/** A cold request is a characterization: check its phase share. */
void
CheckColdShare(const std::string& label, const ServiceResponse& response,
               Ledger* ledger)
{
    const double share = PhaseShare(response, "characterize");
    ledger->Check(share >= 0.95, label + ": characterize is " +
                                     std::to_string(100.0 * share) +
                                     "% of a cold request, below 95%");
}

/** An engine filled for @p devices by the workload's fill requests,
 *  each sent and replayed as a cache miss. */
std::unique_ptr<Engine>
TracedFill(const Options& options, const std::vector<std::string>& devices,
           Replayer* replayer, Ledger* ledger)
{
    auto engine = std::make_unique<Engine>();
    for (const std::string& device : devices) {
        const std::string path = SavePath(options, "fill", device);
        const ServiceResponse response = replayer->Request(
            *engine, FillRequest(device, path), /*miss=*/true);
        CheckColdShare(device + " fill", response, ledger);
        ScoreSavedCharacterization(device, path,
                                   response.characterization_id, ledger);
    }
    return engine;
}

void
TraceWarm(const Options& options, Replayer* replayer, Ledger* ledger,
          Layers* layers)
{
    std::unique_ptr<Engine> engine =
        TracedFill(options, DeviceNames(), replayer, ledger);
    // Every fifth request from a seeded offset: the catalogue's blocks
    // of nine circuits per (device, scheduler) make that each (device,
    // circuit) once, with the five schedulers rotating.
    const std::vector<Template> catalogue = WarmCompileCatalogue();
    std::vector<ServiceResponse> responses;
    for (size_t i = options.seed % 5; i < catalogue.size(); i += 5) {
        responses.push_back(replayer->Request(*engine, catalogue[i], false));
    }
    ledger->Check(LargestPhase(responses, "schedule"),
                  "warm_compile: schedule is not the largest phase");
    for (const Template& t : WarmCompileQualityCatalogue()) {
        if (t.family == Family::kHiddenShift) {
            replayer->Request(*engine, t, false);
        }
    }
    PortfolioProbe(*engine, replayer);
    CountCache(*engine, layers);
}

void
TraceMixed(const Options& options, Replayer* replayer, Ledger* ledger,
           Layers* layers)
{
    std::unique_ptr<Engine> engine =
        TracedFill(options, {"poughkeepsie"}, replayer, ledger);
    const Template cold = ColdRequest(
        kMixedColdDevice, SavePath(options, "cold", kMixedColdDevice));
    // The warm replays share the pool with one cold request, as in the
    // workload.
    Engine cold_engine;
    Exchange cold_exchange;
    std::thread cold_thread(
        [&] { cold_exchange = Send(cold_engine, cold.wire); });
    std::vector<ServiceResponse> responses;
    for (const Template& t : MixedWarmCatalogue()) {
        responses.push_back(replayer->Request(*engine, t, false));
    }
    cold_thread.join();
    ledger->Response(cold, cold_exchange, /*expect_cache_hit=*/false);
    CheckColdShare(cold.label, cold_exchange.response, ledger);
    ScoreSavedCharacterization(kMixedColdDevice,
                               SavePath(options, "cold", kMixedColdDevice),
                               cold_exchange.response.characterization_id,
                               ledger);
    CountCache(cold_engine, layers);
    ledger->Check(LargestPhase(responses, "simulate"),
                  "mixed_simulate: simulate is not the largest phase of "
                  "the warm requests");
    PortfolioProbe(*engine, replayer);
    CountCache(*engine, layers);
}

}  // namespace

Outcome
RunTraced(const Options& options)
{
    Layers layers;
    {
        // First use in the process: the one-time enumeration.
        const Clock::time_point start = Clock::now();
        xtalk::CliffordGroup::Shared(2);
        layers.group2_build_ms = MsSince(start);
    }
    WarmProcessStatics();

    Ledger ledger;
    SpanLog spans;
    Replayer replayer(&spans, &layers, &ledger);
    PoolSampler sampler;
    if (options.workload == "warm_compile") {
        TraceWarm(options, &replayer, &ledger, &layers);
    } else if (options.workload == "mixed_simulate") {
        TraceMixed(options, &replayer, &ledger, &layers);
    } else {
        throw std::invalid_argument("unknown workload " + options.workload);
    }
    sampler.Stop();

    Outcome out;
    LayerMetrics(layers, spans, &out);
    out.metrics.push_back({"runtime.pool_queue_depth_max",
                           static_cast<double>(sampler.max_queue_depth()),
                           "count", 1});
    out.metrics.push_back(
        {"runtime.pool_utilization", sampler.utilization(), "ratio", 1});
    KernelProbes(layers, &out);

    const std::string trace_path = options.out_dir + "/spans-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".json";
    ledger.Check(spans.WriteJson(trace_path), "cannot write " + trace_path);
    out.notes.push_back({"trace.file: " + trace_path, 1, "file", 1});
    ledger.Fill(&out);
    return out;
}

}  // namespace svcbench
