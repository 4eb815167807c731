/**
 * @file
 * Dense state-vector simulator core with the noise-channel primitives the
 * trajectory simulator needs (amplitude-damping jumps, dephasing flips,
 * projective measurement). Little-endian: qubit 0 is the least
 * significant bit of the basis index.
 */
#ifndef XTALK_SIM_STATEVECTOR_H
#define XTALK_SIM_STATEVECTOR_H

#include <vector>

#include "circuit/circuit.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "sim/gate_matrices.h"

namespace xtalk {

/** Pure n-qubit quantum state. */
class StateVector {
  public:
    /** Initialize |0...0> on @p num_qubits qubits. */
    explicit StateVector(int num_qubits);

    int num_qubits() const { return num_qubits_; }
    size_t dimension() const { return amps_.size(); }
    const std::vector<Complex>& amplitudes() const { return amps_; }
    Complex amplitude(size_t basis) const { return amps_[basis]; }

    /** Reset to |0...0>. */
    void Reset();

    /** Apply a 2x2 unitary to qubit @p q. */
    void Apply1Q(int q, const Matrix& u);
    void Apply1Q(int q, const GateMatrix& u);

    /**
     * Apply a 4x4 unitary with @p q_low as the low tensor bit and
     * @p q_high as the high bit.
     */
    void Apply2Q(int q_low, int q_high, const Matrix& u);
    void Apply2Q(int q_low, int q_high, const GateMatrix& u);

    /** Apply a circuit gate (unitary kinds; kI/kBarrier are no-ops). */
    void ApplyGate(const Gate& gate);

    /**
     * Apply unitary gate @p gate whose GateMatrixOf is @p u, built once
     * by the caller (kI is a no-op).
     */
    void ApplyGate(const Gate& gate, const GateMatrix& u);

    /** Apply all unitary gates of a circuit in order. */
    void ApplyCircuit(const Circuit& circuit);

    /** Probability that qubit @p q reads 1. */
    double ProbabilityOne(int q) const;

    /** Full probability distribution over basis states. */
    std::vector<double> Probabilities() const;

    /**
     * Projective Z measurement of qubit @p q with collapse; returns the
     * outcome.
     */
    bool MeasureQubit(int q, Rng& rng);

    /**
     * Amplitude-damping trajectory step on qubit @p q with decay
     * probability @p gamma: stochastically applies the jump (relax to
     * |0>) or the no-jump Kraus operator, renormalizing.
     */
    void AmplitudeDamp(int q, double gamma, Rng& rng);

    /**
     * Dephasing trajectory step: applies Z on @p q with probability
     * @p p_flip.
     */
    void Dephase(int q, double p_flip, Rng& rng);

    /** Inner product <this|other>. */
    Complex InnerProduct(const StateVector& other) const;

    /** Squared overlap |<this|other>|^2. */
    double Fidelity(const StateVector& other) const;

    /** L2 norm (should be ~1). */
    double Norm() const;

  private:
    /** Row-major 2x2 (4x4) @p u on qubit @p q (pair @p q_low, @p q_high). */
    void Kernel1Q(int q, const Complex* u);
    void Kernel2Q(int q_low, int q_high, const Complex* u);

    /** Divide every amplitude by sqrt(@p norm_sq), the squared norm
     *  summed in index order as Norm() sums it. */
    void Normalize(double norm_sq);

    int num_qubits_;
    std::vector<Complex> amps_;
};

/**
 * Full unitary matrix of a circuit (tests only; dimension 2^n).
 */
Matrix CircuitUnitary(const Circuit& circuit);

}  // namespace xtalk

#endif  // XTALK_SIM_STATEVECTOR_H
