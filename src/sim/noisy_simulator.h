/**
 * @file
 * Monte-Carlo trajectory simulator for scheduled circuits on a Device.
 *
 * Per shot, the simulator replays the schedule in time order and injects
 * the three error mechanisms the paper's tradeoff is about:
 *
 *  - gate errors: after each unitary, a random Pauli on the gate's qubits
 *    with the gate's error probability; for two-qubit gates the
 *    probability is the *conditional* error rate when the gate overlaps
 *    in time with an aggressor gate in the device's crosstalk ground
 *    truth (this is how crosstalk physically manifests here);
 *  - decoherence: amplitude damping (T1) and dephasing (T2) trajectory
 *    steps over every busy/idle interval between a qubit's first and
 *    last scheduled operation;
 *  - readout errors: classical bit flips with the per-qubit assignment
 *    error, plus decay during the readout window.
 *
 * Only the qubits the schedule touches are simulated (the register is
 * compacted), so 20-qubit devices with few active qubits stay cheap,
 * and qubits that no chain of two-qubit gates connects are simulated as
 * separate states. Everything the schedule fixes is derived once per
 * Run into a NoisePlan (sim/noise_plan.h), whose shot loop the
 * StabilizerSimulator shares.
 */
#ifndef XTALK_SIM_NOISY_SIMULATOR_H
#define XTALK_SIM_NOISY_SIMULATOR_H

#include <optional>

#include "circuit/schedule.h"
#include "common/rng.h"
#include "device/device.h"
#include "sim/counts.h"

namespace xtalk {

/** Noise toggles for ablation studies. */
struct NoisySimOptions {
    bool gate_noise = true;
    bool crosstalk = true;
    bool decoherence = true;
    bool readout_noise = true;
    uint64_t seed = 0x5EED;
};

/**
 * How to execute one circuit: the simulators interpret `shots` and
 * `seed_override`; `max_parallel_chunks` is honored by the parallel
 * runtime::Executor, which splits the shot budget into up to that many
 * independently seeded chunks (the serial engines run every shot in one
 * stream and ignore it). See docs/PARALLELISM.md.
 */
struct RunSpec {
    RunSpec() = default;
    RunSpec(int shots_,
            std::optional<uint64_t> seed_override_ = std::nullopt,
            int max_parallel_chunks_ = 1)
        : shots(shots_),
          seed_override(seed_override_),
          max_parallel_chunks(max_parallel_chunks_)
    {
    }

    int shots = 1024;
    /**
     * Reseed the simulator's generator before running; absent = keep
     * drawing from the stream where the previous run left off.
     */
    std::optional<uint64_t> seed_override;
    /**
     * Upper bound on shot-chunk parallelism for this run. Part of the
     * spec — not of the executor — because the chunk plan determines
     * the random streams: the same spec gives bit-identical Counts at
     * any thread count.
     */
    int max_parallel_chunks = 1;
};

/** Trajectory simulator bound to one device. */
class NoisySimulator {
  public:
    explicit NoisySimulator(const Device& device, NoisySimOptions options = {});

    /** Run @p spec.shots stochastic trajectories and histogram the
     *  outcomes (serially; see runtime::Executor for the parallel path). */
    Counts Run(const ScheduledCircuit& schedule, const RunSpec& spec);

    /**
     * Noise-free outcome distribution of the schedule's measured bits
     * (single state-vector pass; independent of gate timing).
     */
    std::vector<double> IdealProbabilities(const ScheduledCircuit& schedule)
        const;

    /**
     * Effective error rate the trajectory engine will use for gate
     * @p index of the schedule (exposes the crosstalk-aware rates for
     * tests and diagnostics).
     */
    double EffectiveGateError(const ScheduledCircuit& schedule,
                              int index) const;

    const Device& device() const { return *device_; }

  private:
    const Device* device_;
    NoisySimOptions options_;
    Rng rng_;
};

}  // namespace xtalk

#endif  // XTALK_SIM_NOISY_SIMULATOR_H
