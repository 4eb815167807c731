#include "scheduler/portfolio.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>

#include "common/error.h"
#include "common/logging.h"
#include "faults/faults.h"
#include "scheduler/omega_tuning.h"
#include "scheduler/scheduler.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

using Clock = std::chrono::steady_clock;

double
MsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Tightest of two advisory budgets, where 0 means "none". */
unsigned
MinBudget(unsigned a, unsigned b)
{
    if (a == 0) {
        return b;
    }
    if (b == 0) {
        return a;
    }
    return std::min(a, b);
}

/**
 * Scoring data for members that can schedule without characterization:
 * an empty characterization makes EstimateScheduleError fall back to
 * calibration rates for every edge.
 */
const CrosstalkCharacterization&
ScoringData(const PortfolioContext& ctx)
{
    static const CrosstalkCharacterization empty;
    return ctx.characterization ? *ctx.characterization : empty;
}

const CrosstalkCharacterization&
RequiredCharacterization(const PortfolioContext& ctx, const char* who)
{
    XTALK_REQUIRE(ctx.characterization,
                  who << " needs crosstalk characterization data");
    return *ctx.characterization;
}

class SerialMember : public PortfolioMember {
  public:
    std::string key() const override { return "serial"; }
    std::string display_name() const override { return "SerialSched"; }
    std::string
    description() const override
    {
        return "one gate at a time: maximal crosstalk avoidance, maximal "
               "decoherence (Table 1 baseline)";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        SerialScheduler scheduler(*ctx.device);
        ScheduleCandidate candidate;
        candidate.schedule = scheduler.Schedule(circuit);
        candidate.estimate = EstimateScheduleError(
            candidate.schedule, *ctx.device, &ScoringData(ctx));
        candidate.member = key();
        candidate.scheduler_name = scheduler.name();
        return candidate;
    }
};

class ParallelMember : public PortfolioMember {
  public:
    std::string key() const override { return "parallel"; }
    std::string display_name() const override { return "ParSched"; }
    std::string
    description() const override
    {
        return "maximal parallelism, right-aligned (the IBM hardware "
               "scheduler baseline)";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        ParallelScheduler scheduler(*ctx.device);
        ScheduleCandidate candidate;
        candidate.schedule = scheduler.Schedule(circuit);
        candidate.estimate = EstimateScheduleError(
            candidate.schedule, *ctx.device, &ScoringData(ctx));
        candidate.member = key();
        candidate.scheduler_name = scheduler.name();
        return candidate;
    }
};

class GreedyMember : public PortfolioMember {
  public:
    explicit GreedyMember(GreedySchedulerOptions options)
        : options_(options)
    {
    }
    std::string key() const override { return "greedy"; }
    std::string display_name() const override { return "GreedySched"; }
    std::string
    description() const override
    {
        return "single-pass list scheduler that delays gates past "
               "high-crosstalk partners when the model favours it";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        // Fault point for exercising greedy losing the race (the second
        // hop of the legacy degradation chain).
        faults::MaybeInject("sched.greedy");
        const CrosstalkCharacterization& characterization =
            RequiredCharacterization(ctx, "GreedySched");
        GreedyXtalkScheduler scheduler(*ctx.device, characterization,
                                       options_);
        ScheduleCandidate candidate;
        candidate.schedule = scheduler.Schedule(circuit);
        candidate.estimate = EstimateScheduleError(
            candidate.schedule, *ctx.device, &characterization);
        candidate.member = key();
        candidate.scheduler_name = scheduler.name();
        candidate.omega = options_.omega;
        return candidate;
    }

  private:
    GreedySchedulerOptions options_;
};

class AnnealMember : public PortfolioMember {
  public:
    explicit AnnealMember(AnnealSchedulerOptions options)
        : options_(options)
    {
    }
    std::string key() const override { return "anneal"; }
    std::string display_name() const override { return "AnnealSched"; }
    std::string
    description() const override
    {
        return "seeded simulated annealing over serialization decisions, "
               "scored by the crosstalk cost model";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        const CrosstalkCharacterization& characterization =
            RequiredCharacterization(ctx, "AnnealSched");
        AnnealSchedulerOptions options = options_;
        options.budget_ms = MinBudget(options.budget_ms, ctx.budget_ms);
        AnnealScheduler scheduler(*ctx.device, characterization, options);
        ScheduleCandidate candidate;
        candidate.schedule = scheduler.Schedule(circuit, ctx.cancel);
        candidate.estimate = EstimateScheduleError(
            candidate.schedule, *ctx.device, &characterization);
        candidate.member = key();
        candidate.scheduler_name = scheduler.name();
        candidate.omega = options.omega;
        return candidate;
    }

  private:
    AnnealSchedulerOptions options_;
};

class XtalkMember : public PortfolioMember {
  public:
    explicit XtalkMember(XtalkSchedulerOptions options) : options_(options)
    {
    }
    std::string key() const override { return "xtalk"; }
    std::string display_name() const override { return "XtalkSched"; }
    std::string
    description() const override
    {
        return "exact SMT optimization of the crosstalk/decoherence "
               "objective (the paper's scheduler)";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        const CrosstalkCharacterization& characterization =
            RequiredCharacterization(ctx, "XtalkSched");
        XtalkSchedulerOptions options = options_;
        options.total_budget_ms =
            MinBudget(options.total_budget_ms, ctx.budget_ms);
        XtalkScheduler scheduler(*ctx.device, characterization, options);
        ScheduleCandidate candidate;
        candidate.schedule = scheduler.Schedule(circuit, ctx.cancel);
        candidate.estimate = EstimateScheduleError(
            candidate.schedule, *ctx.device, &characterization);
        candidate.member = key();
        candidate.scheduler_name = scheduler.name();
        candidate.omega = options.omega;
        candidate.start_ns = scheduler.last_start_times();
        candidate.candidate_pairs = scheduler.last_candidate_pairs();
        return candidate;
    }

  private:
    XtalkSchedulerOptions options_;
};

class AutoOmegaMember : public PortfolioMember {
  public:
    AutoOmegaMember(XtalkSchedulerOptions options,
                    std::vector<double> candidates)
        : options_(options), candidates_(std::move(candidates))
    {
        XTALK_REQUIRE(!candidates_.empty(),
                      "auto member needs at least one omega candidate");
    }
    std::string key() const override { return "auto"; }
    std::string
    display_name() const override
    {
        return "XtalkSched(auto)";
    }
    std::string
    description() const override
    {
        return "SMT scheduler with model-guided omega selection over a "
               "warm-started candidate sweep";
    }
    ScheduleCandidate
    Produce(const Circuit& circuit, const PortfolioContext& ctx) override
    {
        const CrosstalkCharacterization& characterization =
            RequiredCharacterization(ctx, "XtalkSched(auto)");
        XtalkSchedulerOptions options = options_;
        options.total_budget_ms =
            MinBudget(options.total_budget_ms, ctx.budget_ms);
        OmegaSelection best =
            SelectOmegaByModel(*ctx.device, characterization, circuit,
                               candidates_, options, ctx.cancel);
        ScheduleCandidate candidate;
        candidate.member = key();
        candidate.scheduler_name = display_name();
        candidate.schedule = std::move(best.schedule);
        candidate.estimate = best.estimate;
        candidate.omega = best.omega;
        candidate.start_ns = std::move(best.start_ns);
        candidate.candidate_pairs = std::move(best.candidate_pairs);
        candidate.sweep = std::move(best.sweep);
        return candidate;
    }

  private:
    XtalkSchedulerOptions options_;
    std::vector<double> candidates_;
};

/** One member's race bookkeeping. */
struct MemberAttempt {
    bool attempted = false;
    std::shared_ptr<runtime::CancelToken> token;
    std::optional<ScheduleCandidate> candidate;
    std::exception_ptr error;
    std::string error_message;
    bool internal = false;
    double wall_ms = 0.0;
};

/** Run one member, capturing its outcome; never throws. */
void
RunOne(PortfolioMember& member, const Circuit& circuit,
       PortfolioContext ctx, MemberAttempt* attempt)
{
    telemetry::ScopedSpan span("sched.portfolio.member");
    const Clock::time_point t0 = Clock::now();
    attempt->attempted = true;
    try {
        attempt->candidate = member.Produce(circuit, ctx);
    } catch (const InternalError& e) {
        attempt->error = std::current_exception();
        attempt->error_message = e.what();
        attempt->internal = true;
    } catch (const std::exception& e) {
        attempt->error = std::current_exception();
        attempt->error_message = e.what();
    } catch (...) {
        attempt->error = std::current_exception();
        attempt->error_message = "unknown error";
    }
    attempt->wall_ms = MsSince(t0);
}

}  // namespace

const std::vector<std::string>&
PortfolioMemberKeys()
{
    static const std::vector<std::string> keys{
        "serial", "parallel", "greedy", "anneal", "xtalk", "auto"};
    return keys;
}

std::unique_ptr<PortfolioMember>
MakePortfolioMember(const std::string& key,
                    const PortfolioMemberOptions& options)
{
    if (key == "serial") {
        return std::make_unique<SerialMember>();
    }
    if (key == "parallel") {
        return std::make_unique<ParallelMember>();
    }
    if (key == "greedy") {
        return std::make_unique<GreedyMember>(options.greedy);
    }
    if (key == "anneal") {
        return std::make_unique<AnnealMember>(options.anneal);
    }
    if (key == "xtalk") {
        return std::make_unique<XtalkMember>(options.xtalk);
    }
    if (key == "auto") {
        return std::make_unique<AutoOmegaMember>(options.xtalk,
                                                 options.omega_candidates);
    }
    throw Error("unknown portfolio member '" + key + "'");
}

const char*
PortfolioOutcomeStatusName(PortfolioMemberOutcome::Status s)
{
    switch (s) {
        case PortfolioMemberOutcome::Status::kWon:
            return "won";
        case PortfolioMemberOutcome::Status::kLost:
            return "lost";
        case PortfolioMemberOutcome::Status::kFailed:
            return "failed";
    }
    return "unknown";
}

SchedulerPortfolio::SchedulerPortfolio(
    std::vector<std::unique_ptr<PortfolioMember>> members)
    : members_(std::move(members))
{
    XTALK_REQUIRE(!members_.empty(),
                  "portfolio needs at least one member");
    for (const auto& member : members_) {
        XTALK_REQUIRE(member != nullptr, "null portfolio member");
    }
}

PortfolioResult
SchedulerPortfolio::Run(const Circuit& circuit, const PortfolioContext& ctx,
                        const PortfolioRunOptions& options)
{
    XTALK_REQUIRE(ctx.device != nullptr,
                  "portfolio context needs a device");
    telemetry::ScopedSpan span("sched.portfolio.race");
    const int n = static_cast<int>(members_.size());
    {
        std::string names;
        for (const auto& member : members_) {
            names += (names.empty() ? "" : ",") + member->key();
        }
        telemetry::JournalEmit(
            "sched.portfolio.start",
            {{"members", names},
             {"prefer_first", options.prefer_first},
             {"budget_ms", static_cast<uint64_t>(options.budget_ms)}});
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.portfolio.races").Add(1);
    }

    // The theoretical score ceiling: used for bound-based cancellation.
    // A completed candidate AT the ceiling cannot be beaten, only tied,
    // and ties go to the earlier rank — so members ranked after it can
    // be cancelled without affecting the winner at any thread count.
    const double upper_bound = UpperBoundSuccessProbability(
        circuit, *ctx.device, ctx.characterization);

    std::vector<MemberAttempt> attempts(members_.size());
    const auto member_ctx = [&](int rank) {
        attempts[rank].token = std::make_shared<runtime::CancelToken>(
            options.cancel);
        PortfolioContext derived = ctx;
        derived.cancel = attempts[rank].token.get();
        derived.budget_ms = MinBudget(ctx.budget_ms, options.budget_ms);
        return derived;
    };

    // Race members [first, n) concurrently on the pool, joining in rank
    // order; once a joined candidate reaches the ceiling, cancel the
    // rest.
    int ceiling_rank = -1;
    const auto race = [&](int first) {
        std::shared_ptr<runtime::ThreadPool> pool =
            options.pool ? options.pool : runtime::ThreadPool::Shared();
        std::vector<std::future<void>> futures;
        futures.reserve(n - first);
        for (int rank = first; rank < n; ++rank) {
            const PortfolioContext derived = member_ctx(rank);
            MemberAttempt* attempt = &attempts[rank];
            PortfolioMember* member = members_[rank].get();
            futures.push_back(pool->Submit([member, &circuit, derived,
                                            attempt] {
                RunOne(*member, circuit, derived, attempt);
            }));
        }
        for (int rank = first; rank < n; ++rank) {
            futures[rank - first].get();
            const MemberAttempt& attempt = attempts[rank];
            if (ceiling_rank < 0 && attempt.candidate &&
                attempt.candidate->estimate.success_probability >=
                    upper_bound) {
                ceiling_rank = rank;
                for (int later = rank + 1; later < n; ++later) {
                    if (attempts[later].token) {
                        attempts[later].token->Cancel();
                    }
                }
            }
        }
    };

    if (options.prefer_first) {
        // Primary-first: the first member wins outright when it
        // succeeds; the race is only for picking the best survivor
        // after a failure. Running it inline keeps the common path free
        // of pool-scheduling effects entirely.
        RunOne(*members_[0], circuit, member_ctx(0), &attempts[0]);
        if (!attempts[0].candidate && !attempts[0].internal && n > 1) {
            race(1);
        }
    } else {
        race(0);
    }

    // Bugs are never raced around: any InternalError propagates after
    // every attempted member joined.
    for (const MemberAttempt& attempt : attempts) {
        if (attempt.attempted && attempt.internal) {
            std::rethrow_exception(attempt.error);
        }
    }

    // Select: highest modeled success probability, exact ties to the
    // earlier rank (strict > keeps the first best).
    int winner = -1;
    double best_score = 0.0;
    for (int rank = 0; rank < n; ++rank) {
        if (!attempts[rank].candidate) {
            continue;
        }
        const double score =
            attempts[rank].candidate->estimate.success_probability;
        if (winner < 0 || score > best_score) {
            winner = rank;
            best_score = score;
        }
    }
    if (winner < 0) {
        // Every attempted member failed: surface the first-ranked
        // member's error (the one the caller asked for most).
        for (const MemberAttempt& attempt : attempts) {
            if (attempt.attempted && attempt.error) {
                std::rethrow_exception(attempt.error);
            }
        }
        throw Error("portfolio race produced no candidate");  // unreachable
    }

    // Degradation, generalizing the legacy chain: any failure ranked
    // before the winner means the preferred scheduler lost to an error.
    std::string reason;
    for (int rank = 0; rank < winner; ++rank) {
        if (!attempts[rank].attempted || !attempts[rank].error) {
            continue;
        }
        if (reason.empty()) {
            reason = attempts[rank].error_message;
        } else {
            reason += "; " + members_[rank]->display_name() +
                      " failed: " + attempts[rank].error_message;
        }
    }

    if (options.prefer_first && attempts[0].error) {
        // Legacy degradation-chain observables, preserved for operators
        // and CI: one fallback hop per failed member before the winner.
        if (telemetry::Enabled()) {
            telemetry::GetCounter("sched.xtalk.fallbacks").Add(1);
        }
        std::string hop_reason;
        for (int rank = 0; rank < winner; ++rank) {
            if (!attempts[rank].attempted || !attempts[rank].error) {
                continue;
            }
            if (hop_reason.empty()) {
                hop_reason = attempts[rank].error_message;
                Warn("schedule: " + members_[rank]->display_name() +
                     " failed (" + hop_reason + "); degrading to " +
                     members_[rank + 1]->display_name());
            } else {
                hop_reason += "; " + members_[rank]->display_name() +
                              " failed: " + attempts[rank].error_message;
                Warn("schedule: " + members_[rank]->display_name() +
                     " failed too; degrading to " +
                     members_[rank + 1]->display_name());
            }
            telemetry::JournalEmit(
                "sched.fallback",
                {{"from", members_[rank]->display_name()},
                 {"to", members_[rank + 1]->display_name()},
                 {"reason", hop_reason}});
        }
    }

    PortfolioResult result;
    result.winner_rank = winner;
    result.winner = std::move(*attempts[winner].candidate);
    const bool degraded = !reason.empty();
    result.degradation = degraded ? members_[winner]->key() : "none";
    result.degradation_reason = degraded ? reason : "";
    for (int rank = 0; rank < n; ++rank) {
        if (!attempts[rank].attempted) {
            continue;
        }
        PortfolioMemberOutcome outcome;
        outcome.member = members_[rank]->key();
        outcome.scheduler_name = members_[rank]->display_name();
        outcome.wall_ms = attempts[rank].wall_ms;
        if (rank == winner) {
            outcome.status = PortfolioMemberOutcome::Status::kWon;
            outcome.score = result.winner.estimate.success_probability;
            outcome.has_score = true;
        } else if (ceiling_rank >= 0 && rank > ceiling_rank) {
            // Cancelled at the ceiling: whether the member finished
            // before the cancel is timing, so it must not show.
            outcome.status = PortfolioMemberOutcome::Status::kLost;
            outcome.reason = "cancelled: " +
                             members_[ceiling_rank]->display_name() +
                             " reached the score ceiling";
        } else if (attempts[rank].candidate) {
            outcome.status = PortfolioMemberOutcome::Status::kLost;
            outcome.score =
                attempts[rank].candidate->estimate.success_probability;
            outcome.has_score = true;
        } else {
            outcome.status = PortfolioMemberOutcome::Status::kFailed;
            outcome.reason = attempts[rank].error_message;
        }
        telemetry::JournalEmit(
            "sched.portfolio.member",
            {{"member", outcome.member},
             {"scheduler", outcome.scheduler_name},
             {"status", PortfolioOutcomeStatusName(outcome.status)},
             {"score", outcome.score},
             {"wall_ms", outcome.wall_ms},
             {"reason", outcome.reason}});
        result.outcomes.push_back(std::move(outcome));
    }
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.portfolio.wins." +
                              result.winner.member)
            .Add(1);
    }
    telemetry::JournalEmit(
        "sched.portfolio.winner",
        {{"member", result.winner.member},
         {"scheduler", result.winner.scheduler_name},
         {"score", result.winner.estimate.success_probability},
         {"rank", result.winner_rank},
         {"degradation", result.degradation}});
    return result;
}

double
UpperBoundSuccessProbability(
    const Circuit& circuit, const Device& device,
    const CrosstalkCharacterization* characterization)
{
    double log_gate_success = 0.0;
    std::vector<double> busy_ns(circuit.num_qubits(), 0.0);
    for (GateId g = 0; g < circuit.size(); ++g) {
        const Gate& gate = circuit.gate(g);
        if (gate.IsBarrier()) {
            continue;
        }
        if (gate.IsMeasure()) {
            for (QubitId q : gate.qubits) {
                busy_ns[q] += device.ReadoutDuration(q);
            }
            continue;
        }
        double base_error;
        if (gate.IsTwoQubitUnitary()) {
            const EdgeId e =
                device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
            XTALK_REQUIRE(e >= 0, "two-qubit gate on uncoupled qubits");
            base_error = (characterization &&
                          characterization->HasIndependentError(e))
                             ? characterization->IndependentError(e)
                             : device.CxError(e);
        } else {
            base_error = device.GateError(gate);
        }
        log_gate_success += std::log(std::max(1e-12, 1.0 - base_error));
        const double duration = device.GateDuration(gate);
        for (QubitId q : gate.qubits) {
            busy_ns[q] += duration;
        }
    }
    double log_decoherence_success = 0.0;
    for (QubitId q = 0; q < circuit.num_qubits(); ++q) {
        if (busy_ns[q] > 0.0) {
            log_decoherence_success -=
                busy_ns[q] / device.CoherenceTimeNs(q);
        }
    }
    return std::exp(log_gate_success + log_decoherence_success);
}

}  // namespace xtalk
