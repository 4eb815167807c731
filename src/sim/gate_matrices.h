/**
 * @file
 * Unitary matrices for the gate set (little-endian qubit convention:
 * qubit 0 is the least significant bit of the basis index).
 */
#ifndef XTALK_SIM_GATE_MATRICES_H
#define XTALK_SIM_GATE_MATRICES_H

#include "circuit/gate.h"
#include "common/matrix.h"

namespace xtalk {

/**
 * Unitary of a one-qubit (2x2) or two-qubit (4x4) gate in fixed
 * row-major storage. It never allocates and is trivially destructible,
 * so a trajectory plan can hold one per op and constant tables of it
 * need no destructor at exit.
 */
struct GateMatrix {
    int dim = 0;          ///< 2 or 4.
    Complex m[16] = {};   ///< Entries (r, c) at m[r * dim + c].

    const Complex& operator()(int r, int c) const { return m[r * dim + c]; }

    /** The same entries as a heap-backed Matrix. */
    Matrix ToMatrix() const;
};

/** I, X, Y, Z, indexed like the Pauli-error draw (0 = identity). */
inline constexpr GateMatrix kPauliMatrices[4] = {
    {2, {1, 0, 0, 1}},
    {2, {0, 1, 1, 0}},
    {2, {0, -Complex(0, 1), Complex(0, 1), 0}},
    {2, {1, 0, 0, -1}},
};

/**
 * Unitary for a gate: 2x2 for single-qubit kinds, 4x4 for two-qubit
 * kinds with qubits[0] as the *low* tensor factor. Throws for barriers,
 * measures and missing parameters.
 */
GateMatrix GateMatrixOf(const Gate& gate);

/** GateMatrixOf(gate) as a Matrix. */
Matrix GateUnitary(const Gate& gate);

/** 2x2 single-qubit unitaries. */
Matrix MatI();
Matrix MatX();
Matrix MatY();
Matrix MatZ();
Matrix MatH();
Matrix MatS();
Matrix MatSdg();
Matrix MatT();
Matrix MatTdg();
Matrix MatSX();
Matrix MatRX(double theta);
Matrix MatRY(double theta);
Matrix MatRZ(double theta);
Matrix MatU1(double lambda);
Matrix MatU2(double phi, double lambda);
Matrix MatU3(double theta, double phi, double lambda);

/**
 * 4x4 CNOT with control = qubit index 0 (low bit), target = index 1.
 */
Matrix MatCX();
Matrix MatCZ();
Matrix MatSwap();

}  // namespace xtalk

#endif  // XTALK_SIM_GATE_MATRICES_H
