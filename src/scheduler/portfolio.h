/**
 * @file
 * Scheduler portfolio racing: every scheduler in the repo — SerialSched,
 * ParSched, GreedySched, AnnealSched, XtalkSched, and the model-guided
 * ω sweep — behind one candidate-producing interface, raced concurrently
 * under a shared deadline.
 *
 * A PortfolioMember wraps one scheduler as a pure function from circuit
 * to ScheduleCandidate: the timed schedule plus its modeled quality
 * (scheduler/analysis.h) and whatever ordering artifacts barrier
 * lowering needs. SchedulerPortfolio races its members on the runtime
 * ThreadPool; a member that exhausts its budget, gets cancelled, or
 * throws a recoverable error is just a member losing the race. The
 * winner is the candidate with the highest modeled success probability;
 * an exact tie goes to the member listed first. Selection is a pure
 * function of the member list and the candidates, and every member is
 * deterministic (seeded, no wall-clock dependence in its output), so
 * the winning schedule is bit-identical at any thread count.
 *
 * Cancellation is cooperative and bound-based: once a joined member's
 * score reaches the theoretical upper bound for the circuit
 * (UpperBoundSuccessProbability), members ranked after it are cancelled
 * — they could at best tie, and a tie loses to the earlier rank, so
 * cancelling them cannot change the winner. Each of them is reported
 * lost, without a score, whether or not it finished before the cancel,
 * so the outcomes too are the same at any thread count.
 *
 * Threading contract: Run() blocks on pool futures, so — like
 * runtime::Executor::Submit — it must NOT be called from a pool worker
 * of the same pool (the join would deadlock a fully-busy pool). Members
 * themselves never submit to the pool.
 *
 * Failure semantics: recoverable failures (SolverFailure, injected
 * transient faults) make the member lose; InternalError — including
 * kind=internal injected faults — is rethrown after every attempted
 * member joined: bugs are never raced around. When every member fails,
 * the first-ranked member's exception is rethrown.
 */
#ifndef XTALK_SCHEDULER_PORTFOLIO_H
#define XTALK_SCHEDULER_PORTFOLIO_H

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cancellation.h"
#include "runtime/thread_pool.h"
#include "scheduler/analysis.h"
#include "scheduler/anneal_scheduler.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Everything a member needs to produce a candidate. */
struct PortfolioContext {
    const Device* device = nullptr;
    /**
     * May be null only for members that schedule without crosstalk data
     * (serial, parallel); those then score against calibration-only
     * rates. Members that need it (greedy, anneal, xtalk, auto) throw.
     */
    const CrosstalkCharacterization* characterization = nullptr;
    /** Cooperative cancellation; polled by anneal/xtalk. May be null. */
    const runtime::CancelToken* cancel = nullptr;
    /**
     * Advisory wall-clock budget for this member, in ms; 0 = none.
     * Tightens (never loosens) the member's own configured budget.
     */
    unsigned budget_ms = 0;
};

/** One scheduler's scored entry in the race. */
struct ScheduleCandidate {
    ScheduledCircuit schedule{1};
    /** Modeled quality under the characterized error model; the race
     *  score is estimate.success_probability. */
    ScheduleErrorEstimate estimate;
    /** Producing member's policy key ("xtalk", "anneal", ...). */
    std::string member;
    /** Scheduler display name ("XtalkSched", "AnnealSched", ...). */
    std::string scheduler_name;
    /** ω the schedule was solved/scored at, when the member uses one. */
    std::optional<double> omega;
    /** SMT ordering artifacts for barrier lowering (xtalk/auto only):
     *  per-gate solver start times and serialization-candidate pairs. */
    std::vector<double> start_ns;
    std::vector<std::pair<GateId, GateId>> candidate_pairs;
    /** (ω, modeled success) per candidate, for the "auto" member. */
    std::vector<std::pair<double, double>> sweep;
};

/** A scheduler wrapped as a candidate producer. */
class PortfolioMember {
  public:
    virtual ~PortfolioMember() = default;
    /** Stable policy key: "serial", "parallel", "greedy", "anneal",
     *  "xtalk", "auto". Doubles as the degradation label. */
    virtual std::string key() const = 0;
    /** Scheduler display name, e.g. "XtalkSched". */
    virtual std::string display_name() const = 0;
    /** One-line description for `xtalkc --list-schedulers`. */
    virtual std::string description() const = 0;
    /** Produce the scored candidate; throws on failure. */
    virtual ScheduleCandidate Produce(const Circuit& circuit,
                                      const PortfolioContext& ctx) = 0;
};

/** Per-scheduler knobs for MakePortfolioMember. */
struct PortfolioMemberOptions {
    XtalkSchedulerOptions xtalk;
    GreedySchedulerOptions greedy;
    AnnealSchedulerOptions anneal;
    /** ω candidates for the "auto" member. */
    std::vector<double> omega_candidates{0.0, 0.05, 0.1, 0.2,
                                         0.35, 0.5, 0.75, 1.0};
};

/** Every registered member key, in default portfolio order. */
const std::vector<std::string>& PortfolioMemberKeys();

/**
 * Construct the member registered under @p key; throws Error on an
 * unknown key. Keys are listed by PortfolioMemberKeys().
 */
std::unique_ptr<PortfolioMember> MakePortfolioMember(
    const std::string& key, const PortfolioMemberOptions& options = {});

/** How one member's race ended. */
struct PortfolioMemberOutcome {
    enum class Status { kWon, kLost, kFailed };

    std::string member;          ///< Policy key.
    std::string scheduler_name;  ///< Display name.
    Status status = Status::kLost;
    /** estimate.success_probability; meaningless when !has_score. */
    double score = 0.0;
    bool has_score = false;
    double wall_ms = 0.0;
    /** Failure message (kFailed), the cancel reason of a member ranked
     *  after one that reached the score ceiling, or "" otherwise. */
    std::string reason;
};

/** Stable lowercase status name: "won" | "lost" | "failed". */
const char* PortfolioOutcomeStatusName(PortfolioMemberOutcome::Status s);

/** The race's verdict. */
struct PortfolioResult {
    ScheduleCandidate winner;
    /** Winner's index in the member list (rank order). */
    int winner_rank = -1;
    /**
     * Degradation marker, generalizing the old xtalk→greedy→parallel
     * chain: the winner's policy key when a member ranked BEFORE the
     * winner failed (the preferred scheduler lost the race to an
     * error), "none" otherwise.
     */
    std::string degradation = "none";
    /** Joined failure messages of the members that failed. */
    std::string degradation_reason;
    /** One entry per ATTEMPTED member, in rank order (in prefer-first
     *  mode backups are only attempted when the primary fails). */
    std::vector<PortfolioMemberOutcome> outcomes;
};

/** Race configuration. */
struct PortfolioRunOptions {
    /** Pool to race on; null uses ThreadPool::Shared(). */
    std::shared_ptr<runtime::ThreadPool> pool;
    /** Advisory per-member wall budget, in ms; 0 = none. Members run
     *  concurrently, so each gets the full budget, not a share. */
    unsigned budget_ms = 0;
    /**
     * Primary-first mode (the legacy degradation chain's semantics):
     * run the first member alone; it wins outright on success, and only
     * on failure are the remaining members raced. Keeps the common path
     * of kXtalk/kXtalkAutoOmega byte-deterministic and wasted-work-free.
     */
    bool prefer_first = false;
    /** Parent cancel token: chains into every member's token. */
    std::shared_ptr<const runtime::CancelToken> cancel;
};

/** The race runner; see the file comment for the full contract. */
class SchedulerPortfolio {
  public:
    explicit SchedulerPortfolio(
        std::vector<std::unique_ptr<PortfolioMember>> members);

    /** Race every member and select the winner. Blocks; see the file
     *  comment for the threading and failure contract. */
    PortfolioResult Run(const Circuit& circuit, const PortfolioContext& ctx,
                        const PortfolioRunOptions& options = {});

    const std::vector<std::unique_ptr<PortfolioMember>>& members() const
    {
        return members_;
    }

  private:
    std::vector<std::unique_ptr<PortfolioMember>> members_;
};

/**
 * Theoretical ceiling on any schedule's modeled success probability for
 * @p circuit: every gate at its independent (crosstalk-free) error rate
 * and every qubit busy only for the gates it must execute (gate plus
 * readout durations — no waiting at all). Valid for every legal
 * schedule, so a candidate scoring at the bound cannot be beaten, only
 * tied. @p characterization may be null (calibration-only rates).
 */
double UpperBoundSuccessProbability(
    const Circuit& circuit, const Device& device,
    const CrosstalkCharacterization* characterization);

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_PORTFOLIO_H
