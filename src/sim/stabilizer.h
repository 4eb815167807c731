/**
 * @file
 * Stabilizer-state simulator (Aaronson-Gottesman CHP) with measurement.
 *
 * Tracks an n-qubit stabilizer state in O(n^2) bits — the Tableau of
 * clifford/tableau.h plus measurement — and simulates Clifford gates in
 * O(n) and measurements in O(n^2), exponentially cheaper than the state
 * vector for the Clifford-only circuits of randomized benchmarking. The
 * StabilizerSimulator below replays the same NoisePlan
 * (sim/noise_plan.h) as the NoisySimulator, through the same shot loop;
 * only the state's noise primitives differ:
 *
 *  - gate errors inject uniform random Paulis (identical to the
 *    trajectory engine — depolarizing noise is a Pauli channel);
 *  - decoherence uses the *Pauli twirl* of amplitude damping
 *    (pX = pY = gamma/4, pZ = (1 - gamma/2 - sqrt(1-gamma))/2) plus the
 *    dephasing Z-flip — an approximation (exact amplitude damping is
 *    not a stabilizer operation), accurate to O(gamma^2) per step;
 *  - readout errors flip classical bits.
 *
 * RB error estimates from this backend match the state-vector backend
 * within statistical tolerance (tested). Both engines replay each
 * coupler as its own small state, so on a two-coupler SRB schedule this
 * one is only about 1.35x faster (measured in docs/TUTORIAL.md §3).
 */
#ifndef XTALK_SIM_STABILIZER_H
#define XTALK_SIM_STABILIZER_H

#include "circuit/schedule.h"
#include "clifford/tableau.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"
#include "sim/noisy_simulator.h"

namespace xtalk {

/**
 * n-qubit stabilizer state: the Clifford tableau (its gates, Reset and
 * ApplyGate) plus CHP measurement and the Pauli-twirled noise steps.
 */
class StabilizerState : public Tableau {
  public:
    /** Initialize |0...0>. */
    explicit StabilizerState(int num_qubits);

    /**
     * Z-basis measurement of qubit @p q with collapse; random outcomes
     * drawn from @p rng.
     */
    bool MeasureQubit(int q, Rng& rng);

    /**
     * Probability that measuring @p q yields 1: exactly 0, 0.5, or 1
     * for stabilizer states.
     */
    double ProbabilityOne(int q) const;

    /**
     * Pauli-twirled amplitude damping on @p q with decay probability
     * @p gamma: one uniform draw picks X, Y, Z or nothing.
     */
    void AmplitudeDamp(int q, double gamma, Rng& rng);

    /** Dephasing step: Z on @p q with probability @p p_flip. */
    void Dephase(int q, double p_flip, Rng& rng);

  private:
    /**
     * CHP rowsum: row h *= row i (Pauli product with phase tracking).
     * @p track_phase=false skips the i-power bookkeeping and leaves
     * h.r untouched — required when h is a *destabilizer* row, which
     * may anticommute with i (odd i-power) and whose phase bit the
     * algorithm never reads.
     */
    void RowSum(TableauRow& h, const TableauRow& i,
                bool track_phase = true) const;

    /** ProbabilityOne's accumulator, allocated once with the state. */
    mutable TableauRow scratch_;
};

/**
 * Clifford-only counterpart of NoisySimulator: executes a scheduled
 * circuit with the (Pauli-twirled) noise model on stabilizer states.
 */
class StabilizerSimulator {
  public:
    explicit StabilizerSimulator(const Device& device,
                                 NoisySimOptions options = {});

    /**
     * Run @p spec.shots trajectories. Throws if the schedule contains
     * non-Clifford gates.
     */
    Counts Run(const ScheduledCircuit& schedule, const RunSpec& spec);

  private:
    const Device* device_;
    NoisySimOptions options_;
    Rng rng_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_STABILIZER_H
