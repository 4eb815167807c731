/**
 * @file
 * The shot-independent half of a noisy trajectory run, shared by the
 * state-vector (NoisySimulator) and stabilizer (StabilizerSimulator)
 * engines: BuildNoisePlan derives everything the schedule fixes once
 * per Run (compact register, crosstalk-aware gate errors, readout
 * errors, every decoherence step), and RunTrajectories replays it shot
 * by shot on either state type.
 */
#ifndef XTALK_SIM_NOISE_PLAN_H
#define XTALK_SIM_NOISE_PLAN_H

#include <vector>

#include "circuit/schedule.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"
#include "sim/gate_matrices.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/**
 * Error rate of gate @p index of @p schedule: the device rate, or for a
 * two-qubit gate with @p crosstalk the max conditional rate over the
 * two-qubit gates it overlaps (the paper's constraint 7). 0 for
 * barriers and measures.
 */
double CrosstalkAwareGateError(const Device& device,
                               const ScheduledCircuit& schedule, int index,
                               bool crosstalk);

/** T1 decay and dephasing of one qubit over one busy or idle interval. */
struct DecoherenceStep {
    int qubit = 0;
    bool dephases = false;   ///< T_phi is finite: draw a dephasing flip.
    double gamma = 0.0;      ///< 1 - exp(-dt / T1).
    double p_dephase = 0.0;  ///< (1 - exp(-dt / T_phi)) / 2.
};

/** One gate or measure; its decoherence steps live in NoisePlan::steps. */
struct PlannedOp {
    Gate gate;                  ///< Qubits remapped to the compact register.
    double error = 0.0;         ///< Pauli-error probability after a gate.
    double readout_error = 0.0; ///< Outcome-flip probability of a measure.
    /** steps[begin, mid) come before the op, steps[mid, end) after. */
    int steps_begin = 0;
    int steps_mid = 0;
    int steps_end = 0;
};

/** Schedule-determined noise of one run; barriers are dropped. */
struct NoisePlan {
    std::vector<QubitId> device_of_local;
    std::vector<PlannedOp> ops;
    /** unitaries[i] = GateMatrixOf(ops[i].gate), empty for a measure.
     *  Kept apart from ops so the stabilizer's loop never walks them. */
    std::vector<GateMatrix> unitaries;
    std::vector<DecoherenceStep> steps;
    int num_clbits = 1;
    int num_measures = 0;
    bool readout_noise = false;

    int width() const { return static_cast<int>(device_of_local.size()); }
};

/**
 * Plan @p schedule on @p device under @p options' noise toggles (the
 * seed is unused). Throws Error if the schedule touches no qubits or
 * measures into a classical bit >= 64, which Counts cannot hold.
 */
NoisePlan BuildNoisePlan(const Device& device,
                         const ScheduledCircuit& schedule,
                         const NoisySimOptions& options);

/** Replay @p plan for @p shots trajectories on @p state (a StateVector
 *  or StabilizerState of plan.width() qubits), drawing from @p rng. */
template <typename State>
Counts RunTrajectories(const NoisePlan& plan, State& state, int shots,
                       Rng& rng);

}  // namespace xtalk

#endif  // XTALK_SIM_NOISE_PLAN_H
