#include "scheduler/omega_tuning.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

OmegaSelection
SelectOmegaByModel(const Device& device,
                   const CrosstalkCharacterization& characterization,
                   const Circuit& circuit,
                   const std::vector<double>& candidates,
                   const XtalkSchedulerOptions& base,
                   const runtime::CancelToken* cancel)
{
    XTALK_REQUIRE(!candidates.empty(), "need at least one candidate omega");
    // One warm-started sweep: candidates share the solver context and
    // everything lazy refinement learned (see ScheduleForOmegas), so
    // this is much cheaper than solving each candidate from scratch.
    XtalkScheduler scheduler(device, characterization, base);
    std::vector<OmegaSolveResult> solved =
        scheduler.ScheduleForOmegas(circuit, candidates, cancel);
    OmegaSelection best;
    bool have_best = false;
    for (OmegaSolveResult& result : solved) {
        const ScheduleErrorEstimate estimate =
            EstimateScheduleError(result.schedule, device,
                                  &characterization);
        best.sweep.push_back({result.omega, estimate.success_probability});
        if (!have_best ||
            estimate.success_probability > best.estimate.success_probability) {
            best.omega = result.omega;
            best.schedule = std::move(result.schedule);
            best.estimate = estimate;
            best.start_ns = std::move(result.start_ns);
            best.candidate_pairs = std::move(result.candidate_pairs);
            have_best = true;
        }
    }
    return best;
}

namespace {

/** 1 - total variation distance between a histogram and @p ideal. */
double
DistributionOverlap(const Counts& counts, const std::vector<double>& ideal)
{
    return 1.0 - TotalVariationDistance(counts.ToProbabilities(), ideal);
}

}  // namespace

OmegaSelection
SelectOmegaBySimulation(const Device& device,
                        const CrosstalkCharacterization& characterization,
                        const Circuit& circuit,
                        const std::vector<double>& candidates,
                        const XtalkSchedulerOptions& base, int shots,
                        uint64_t seed, runtime::ExecutorOptions exec_options)
{
    XTALK_REQUIRE(!candidates.empty(), "need at least one candidate omega");
    XTALK_REQUIRE(shots > 0, "need a positive shot budget");

    // Solve every candidate's schedule serially; only simulation fans out.
    std::vector<ScheduledCircuit> schedules;
    runtime::ExecutionRequest request;
    for (size_t i = 0; i < candidates.size(); ++i) {
        XtalkSchedulerOptions options = base;
        options.omega = candidates[i];
        XtalkScheduler scheduler(device, characterization, options);
        schedules.push_back(scheduler.Schedule(circuit));

        runtime::ExecutionJob job;
        job.schedule = schedules.back();
        job.seed = DeriveSeed(seed, i);
        job.spec = RunSpec{shots, std::nullopt, 4};
        request.jobs.push_back(std::move(job));
    }
    runtime::Executor executor(device, exec_options);
    const std::vector<runtime::ExecutionResult> executed =
        executor.Submit(std::move(request));

    NoisySimulator reference(device);
    OmegaSelection best;
    bool have_best = false;
    double best_overlap = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const double overlap = DistributionOverlap(
            executed[i].counts, reference.IdealProbabilities(schedules[i]));
        best.sweep.push_back({candidates[i], overlap});
        if (!have_best || overlap > best_overlap) {
            best.omega = candidates[i];
            best.schedule = schedules[i];
            best_overlap = overlap;
            have_best = true;
        }
    }
    best.estimate =
        EstimateScheduleError(best.schedule, device, &characterization);
    return best;
}

}  // namespace xtalk
