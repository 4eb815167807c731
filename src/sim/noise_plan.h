/**
 * @file
 * The shot-independent half of a noisy trajectory run, shared by the
 * state-vector (NoisySimulator) and stabilizer (StabilizerSimulator)
 * engines: BuildNoisePlan derives everything the schedule fixes once
 * per Run (compact register, crosstalk-aware gate errors, readout
 * errors, every decoherence step), and RunTrajectories replays it shot
 * by shot on either state type.
 *
 * The plan splits the compact register into clusters: qubits joined,
 * directly or through other qubits, by a two-qubit op. Every noise
 * channel of the model acts on one op's qubits, so clusters never
 * entangle and each is replayed as its own state. An SRB job on two
 * couplers is two 2-qubit states instead of one 4-qubit state. The
 * random draws keep their order, so the stabilizer's histograms are
 * exactly those of one joint state, and the state vector's differ only
 * where rounding moves a draw across its threshold.
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
 * barriers and measures. BuildNoisePlan finds the same rates for a
 * whole schedule in one sweep; this per-gate form scans the schedule.
 */
double CrosstalkAwareGateError(const Device& device,
                               const ScheduledCircuit& schedule, int index,
                               bool crosstalk);

/** T1 decay and dephasing of one qubit over one busy or idle interval. */
struct DecoherenceStep {
    int cluster = 0;
    int qubit = 0;           ///< Index inside the cluster.
    bool dephases = false;   ///< T_phi is finite: draw a dephasing flip.
    double gamma = 0.0;      ///< 1 - exp(-dt / T1).
    double p_dephase = 0.0;  ///< (1 - exp(-dt / T_phi)) / 2.
};

/** One gate or measure; its decoherence steps live in NoisePlan::steps. */
struct PlannedOp {
    Gate gate;                  ///< Qubits remapped to indices in cluster.
    int cluster = 0;
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
    /** clusters[c][k] = compact qubit of qubit k of cluster c; clusters
     *  and their qubits come in compact order. */
    std::vector<std::vector<int>> clusters;
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

/** Replay @p plan for @p shots trajectories on one State (StateVector
 *  or StabilizerState) per cluster, drawing from @p rng. */
template <typename State>
Counts RunTrajectories(const NoisePlan& plan, int shots, Rng& rng);

}  // namespace xtalk

#endif  // XTALK_SIM_NOISE_PLAN_H
