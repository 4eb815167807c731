/**
 * @file
 * Stabilizer tableau for n-qubit Clifford unitaries (Aaronson-Gottesman,
 * CHP update rules, measurement-free).
 *
 * Row i < n is the destabilizer (the image U X_i U-dagger), row n+i the
 * stabilizer (image of Z_i); each row is a signed Pauli string. Applying
 * a gate g via the Apply* methods produces the tableau of g composed
 * *after* the current unitary, matching circuit execution order. This is
 * exactly what randomized benchmarking needs: accumulate the tableau of
 * the random sequence, then synthesize the gate sequence that reduces it
 * to the identity — that sequence *is* the recovery (inverse) circuit.
 */
#ifndef XTALK_CLIFFORD_TABLEAU_H
#define XTALK_CLIFFORD_TABLEAU_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace xtalk {

/** Signed Pauli-string row of a tableau. */
struct TableauRow {
    std::vector<uint64_t> x;  ///< X bits, packed.
    std::vector<uint64_t> z;  ///< Z bits, packed.
    bool r = false;           ///< Sign bit (true = -1).

    bool GetX(int q) const { return (x[q / 64] >> (q % 64)) & 1; }
    bool GetZ(int q) const { return (z[q / 64] >> (q % 64)) & 1; }
    void SetX(int q, bool v);
    void SetZ(int q, bool v);
    /** Set every bit and the sign to zero (the identity, +I). */
    void Clear();
};

/** n-qubit Clifford tableau (unitary part only; no measurement). */
class Tableau {
  public:
    /** Identity tableau on @p num_qubits qubits. */
    explicit Tableau(int num_qubits);

    /** Tableau of a Clifford circuit (throws on non-Clifford gates). */
    static Tableau FromCircuit(const Circuit& circuit);

    int num_qubits() const { return num_qubits_; }

    /** Return to the identity tableau. */
    void Reset();

    /** Destabilizer row i (image of X_i). */
    const TableauRow& destabilizer(int i) const { return rows_[i]; }
    /** Stabilizer row i (image of Z_i). */
    const TableauRow&
    stabilizer(int i) const
    {
        return rows_[num_qubits_ + i];
    }

    // Gate application (composes the gate after the current unitary).
    void ApplyH(int q);
    void ApplyS(int q);
    void ApplySdg(int q);
    void ApplyX(int q);
    void ApplyY(int q);
    void ApplyZ(int q);
    void ApplySX(int q);
    void ApplyCX(int control, int target);
    void ApplyCZ(int a, int b);
    void ApplySwap(int a, int b);

    /**
     * Apply a circuit gate. Clifford kinds only; kI and kBarrier are
     * no-ops; throws xtalk::Error for non-Clifford kinds (T, rotations,
     * measure).
     */
    void ApplyGate(const Gate& gate);

    /** True if this is the identity Clifford (up to global phase). */
    bool IsIdentity() const;

    bool operator==(const Tableau& rhs) const;

    /** Canonical byte string for hashing / map keys. */
    std::string Key() const;

    /**
     * Synthesize the gate sequence (in execution order) that maps this
     * Clifford back to the identity: executing the returned circuit after
     * the unitary this tableau represents yields the identity (up to
     * global phase). The tableau is left unchanged.
     *
     * Gates used: H, S, CX, X, Z, Swap.
     */
    Circuit SynthesizeInverse() const;

    /**
     * Synthesize a circuit implementing this Clifford itself (the
     * reversed dagger of SynthesizeInverse).
     */
    Circuit Decompose() const;

    /** Multi-line debug rendering ("+XZI" style rows). */
    std::string ToString() const;

  protected:
    int num_qubits_;
    /** rows_[0..n-1] destabilizers, rows_[n..2n-1] stabilizers. */
    std::vector<TableauRow> rows_;

  private:
    /** Reduce a copy of the tableau to identity, recording gates. */
    static void ReduceToIdentity(Tableau& t, Circuit* out);
};

}  // namespace xtalk

#endif  // XTALK_CLIFFORD_TABLEAU_H
