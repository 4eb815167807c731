/**
 * @file
 * Model-guided selection of the crosstalk weight factor omega.
 *
 * The paper leaves omega as a user knob and shows (Figures 8-9) that the
 * best value depends on the application's crosstalk susceptibility. This
 * utility automates the choice without spending device time: it solves
 * the schedule for each candidate omega and scores the results under the
 * characterized error model (the same model the solver optimizes),
 * returning the schedule with the highest modeled success probability.
 */
#ifndef XTALK_SCHEDULER_OMEGA_TUNING_H
#define XTALK_SCHEDULER_OMEGA_TUNING_H

#include <vector>

#include "runtime/executor.h"
#include "scheduler/analysis.h"
#include "scheduler/xtalk_scheduler.h"

namespace xtalk {

/** Outcome of an omega sweep. */
struct OmegaSelection {
    double omega = 0.5;
    ScheduledCircuit schedule{1};
    ScheduleErrorEstimate estimate;
    /** (omega, modeled success) for every candidate, in sweep order. */
    std::vector<std::pair<double, double>> sweep;
    /** The winner's solver start times, indexed by GateId. */
    std::vector<double> start_ns;
    /** The winner's serialization-candidate pairs (barrier inserter). */
    std::vector<std::pair<GateId, GateId>> candidate_pairs;
};

/**
 * Solve the schedule for each candidate omega and pick the one with the
 * highest modeled success probability (the first, on ties). @p base
 * supplies every other scheduler option; @p cancel (may be null) cuts
 * the sweep short as in XtalkScheduler::ScheduleForOmegas.
 */
OmegaSelection SelectOmegaByModel(
    const Device& device, const CrosstalkCharacterization& characterization,
    const Circuit& circuit,
    const std::vector<double>& candidates = {0.0, 0.05, 0.1, 0.2, 0.35,
                                             0.5, 0.75, 1.0},
    const XtalkSchedulerOptions& base = {},
    const runtime::CancelToken* cancel = nullptr);

/**
 * Empirical variant of SelectOmegaByModel: solve the schedule for each
 * candidate omega serially (the SMT solver is not reentrant), then run
 * every candidate's Monte-Carlo simulation as one Executor batch and
 * score it by distribution overlap with the noise-free outcome
 * (1 - total variation distance). Candidate i's simulation uses seed
 * DeriveSeed(@p seed, i), so the selection is deterministic for any
 * thread count. Slower but model-independent — this is what Figures 8-9
 * sweep measures, minus the metric plumbing.
 */
OmegaSelection SelectOmegaBySimulation(
    const Device& device, const CrosstalkCharacterization& characterization,
    const Circuit& circuit,
    const std::vector<double>& candidates = {0.0, 0.05, 0.1, 0.2, 0.35,
                                             0.5, 0.75, 1.0},
    const XtalkSchedulerOptions& base = {}, int shots = 4096,
    uint64_t seed = 0xA11CE, runtime::ExecutorOptions exec_options = {});

}  // namespace xtalk

#endif  // XTALK_SCHEDULER_OMEGA_TUNING_H
