/**
 * @file
 * Seeded request streams for the service benchmark, and the references
 * their responses are checked against.
 *
 * Every request carries a compact logical circuit (qubits 0..n-1) from
 * src/workloads — QAOA chains (paper Fig. 8), Hidden Shift (Fig. 9) and
 * SWAP-chain Bell circuits (Fig. 6) — so placement is left to the
 * service's layout pass, as for any client. The workload seed picks the
 * request order; the engine only ever sees the generated wire lines. The
 * circuits' parameters (QAOA angles, hidden shifts) come from fixed
 * streams, so the quality metrics repeat exactly from seed to seed and
 * can carry tight bounds.
 *
 * The references use nothing of the compiler: the noise-free output
 * distribution comes from a StateVector run of the logical circuit, the
 * hidden shift from HiddenShiftExpectedOutcome, and the crosstalk truth
 * from Device::ground_truth().
 */
#ifndef SVCBENCH_REQUESTS_H
#define SVCBENCH_REQUESTS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "characterization/characterizer.h"
#include "circuit/circuit.h"
#include "device/device.h"
#include "service/api.h"

namespace svcbench {

/** The paper's three devices, in the order cold requests rotate. */
const std::vector<std::string>& DeviceNames();

/** The built-in device of that name (built once per process). */
const xtalk::Device& DeviceByName(const std::string& name);

enum class Family { kQaoa, kHiddenShift, kSwapBell };

/** A scheduler as a request names it. */
struct SchedulerChoice {
    std::string name;
    double omega = 0.5;
};

/** One distinct request of a workload. */
struct Template {
    /** Also the request id, so repeats have identical projections. */
    std::string label;
    Family family = Family::kQaoa;
    xtalk::Circuit logical{1};
    /** kHiddenShift: the outcome every correct run returns most. */
    uint64_t hidden_shift = 0;
    xtalk::service::ServiceRequest request;
    /** request.ToJson(): the line a client would send. */
    std::string wire;
};

/** QAOA (3 layers) on the chain 0..qubits-1, angles from
 *  @p angle_seed; @p shots 0 compiles only. */
Template MakeQaoa(const std::string& device, int qubits, uint64_t angle_seed,
                  const SchedulerChoice& scheduler, int shots);

/**
 * warm_compile: every device x {QAOA 4..8, Hidden Shift plain and
 * redundant, SWAP-chain Bell of 4 and 5 qubits} x {xtalk at omega
 * 0.25/0.5/0.75, auto, portfolio}; compile only.
 */
std::vector<Template> WarmCompileCatalogue();

/** warm_compile's quality pass: its Hidden Shift and QAOA 4..6
 *  circuits at xtalk omega 0.5, each simulated for 8192 shots. */
std::vector<Template> WarmCompileQualityCatalogue();

/** mixed_simulate's warm clients, Poughkeepsie, xtalk omega 0.5, 8192
 *  shots: three copies of QAOA 4..6 and Hidden Shift plain and
 *  redundant, each with its own angles or shift, and one QAOA-7. */
std::vector<Template> MixedWarmCatalogue();

/** The small fixed cold request: Hidden Shift, 1024 shots, saving the
 *  measured characterization to @p save_path for the recall check. */
Template ColdRequest(const std::string& device, const std::string& save_path);

/** The cache-fill request of the warm workloads' set-up. */
Template FillRequest(const std::string& device,
                     const std::string& save_path);

/** Noise-free distribution over the classical bits of @p logical. */
std::vector<double> IdealDistribution(const xtalk::Circuit& logical);

/** Parse Counts::ToString() text; false when malformed. */
bool ParseCounts(const std::string& text,
                 std::map<uint64_t, int>* histogram);

/** High-crosstalk pairs found against the device's ground truth. */
struct PairScore {
    /** Ground-truth pairs at 1 hop, and how many were flagged. */
    int truth = 0;
    int truth_found = 0;
    /** Pairs flagged, and how many of them are in the ground truth. */
    int flagged = 0;
    int flagged_true = 0;
};

PairScore ScorePairs(const xtalk::Device& device,
                     const xtalk::CrosstalkCharacterization& measured);

}  // namespace svcbench

#endif  // SVCBENCH_REQUESTS_H
