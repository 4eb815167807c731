#include "sim/statevector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace xtalk {

namespace {

/**
 * u * a as (ac - bd, ad + bc): what std::complex's operator* computes
 * for finite operands, without its NaN-recovery branch.
 */
inline Complex
Mul(Complex u, Complex a)
{
    return Complex(u.real() * a.real() - u.imag() * a.imag(),
                   u.real() * a.imag() + u.imag() * a.real());
}

/** @p x with a zero bit inserted at position @p bit. */
inline size_t
InsertZeroBit(size_t x, int bit)
{
    const size_t low = (size_t{1} << bit) - 1;
    return ((x & ~low) << 1) | (x & low);
}

}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits)
{
    XTALK_REQUIRE(num_qubits > 0 && num_qubits <= 26,
                  "statevector supports 1..26 qubits, got " << num_qubits);
    amps_.assign(size_t{1} << num_qubits, Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

void
StateVector::Reset()
{
    std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

void
StateVector::Apply1Q(int q, const Matrix& u)
{
    XTALK_ASSERT(u.rows() == 2 && u.cols() == 2, "expected 2x2 unitary");
    Kernel1Q(q, &u(0, 0));
}

void
StateVector::Apply1Q(int q, const GateMatrix& u)
{
    XTALK_ASSERT(u.dim == 2, "expected 2x2 unitary");
    Kernel1Q(q, u.m);
}

void
StateVector::Apply2Q(int q_low, int q_high, const Matrix& u)
{
    XTALK_ASSERT(u.rows() == 4 && u.cols() == 4, "expected 4x4 unitary");
    Kernel2Q(q_low, q_high, &u(0, 0));
}

void
StateVector::Apply2Q(int q_low, int q_high, const GateMatrix& u)
{
    XTALK_ASSERT(u.dim == 4, "expected 4x4 unitary");
    Kernel2Q(q_low, q_high, u.m);
}

void
StateVector::Kernel1Q(int q, const Complex* u)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    if (telemetry::Enabled()) {
        static telemetry::Counter& gates_1q =
            telemetry::GetCounter("sim.statevector.kernel.1q");
        gates_1q.Add(1);
    }
    const Complex u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    const size_t stride = size_t{1} << q;
    Complex* amps = amps_.data();
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t i0 = base; i0 < base + stride; ++i0) {
            const size_t i1 = i0 + stride;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] = Mul(u00, a0) + Mul(u01, a1);
            amps[i1] = Mul(u10, a0) + Mul(u11, a1);
        }
    }
}

void
StateVector::Kernel2Q(int q_low, int q_high, const Complex* u)
{
    XTALK_REQUIRE(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                      q_high < num_qubits_ && q_low != q_high,
                  "invalid qubit pair (" << q_low << ", " << q_high << ")");
    if (telemetry::Enabled()) {
        static telemetry::Counter& gates_2q =
            telemetry::GetCounter("sim.statevector.kernel.2q");
        gates_2q.Add(1);
    }
    // Locals, so the amplitude stores cannot force reloads.
    Complex c[16];
    std::copy(u, u + 16, c);
    const int bit_a = std::min(q_low, q_high);
    const int bit_b = std::max(q_low, q_high);
    const size_t mask_low = size_t{1} << q_low;   // Local index 1.
    const size_t mask_high = size_t{1} << q_high; // Local index 2.
    Complex* amps = amps_.data();
    // Each k in [0, 2^(n-2)) is one 4-tuple's 00 member with zero bits
    // inserted at both qubit positions, lower position first.
    for (size_t k = 0; k < amps_.size() / 4; ++k) {
        const size_t i00 = InsertZeroBit(InsertZeroBit(k, bit_a), bit_b);
        const size_t i01 = i00 | mask_low;
        const size_t i10 = i00 | mask_high;
        const size_t i11 = i01 | mask_high;
        const Complex a00 = amps[i00];
        const Complex a01 = amps[i01];
        const Complex a10 = amps[i10];
        const Complex a11 = amps[i11];
        amps[i00] = Mul(c[0], a00) + Mul(c[1], a01) + Mul(c[2], a10) +
                    Mul(c[3], a11);
        amps[i01] = Mul(c[4], a00) + Mul(c[5], a01) + Mul(c[6], a10) +
                    Mul(c[7], a11);
        amps[i10] = Mul(c[8], a00) + Mul(c[9], a01) + Mul(c[10], a10) +
                    Mul(c[11], a11);
        amps[i11] = Mul(c[12], a00) + Mul(c[13], a01) + Mul(c[14], a10) +
                    Mul(c[15], a11);
    }
}

void
StateVector::ApplyGate(const Gate& gate)
{
    if (gate.kind == GateKind::kI || gate.kind == GateKind::kBarrier) {
        return;
    }
    XTALK_REQUIRE(!gate.IsMeasure(),
                  "measure must go through MeasureQubit");
    ApplyGate(gate, GateMatrixOf(gate));
}

void
StateVector::ApplyGate(const Gate& gate, const GateMatrix& u)
{
    if (gate.kind == GateKind::kI) {
        return;
    }
    if (gate.qubits.size() == 1) {
        Apply1Q(gate.qubits[0], u);
    } else {
        Apply2Q(gate.qubits[0], gate.qubits[1], u);
    }
}

void
StateVector::ApplyCircuit(const Circuit& circuit)
{
    XTALK_REQUIRE(circuit.num_qubits() <= num_qubits_,
                  "circuit wider than state");
    for (const Gate& g : circuit.gates()) {
        if (!g.IsMeasure()) {
            ApplyGate(g);
        }
    }
}

double
StateVector::ProbabilityOne(int q) const
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const size_t stride = size_t{1} << q;
    double p = 0.0;
    for (size_t base = stride; base < amps_.size(); base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            p += std::norm(amps_[i]);
        }
    }
    return p;
}

std::vector<double>
StateVector::Probabilities() const
{
    std::vector<double> probs(amps_.size());
    for (size_t i = 0; i < amps_.size(); ++i) {
        probs[i] = std::norm(amps_[i]);
    }
    return probs;
}

bool
StateVector::MeasureQubit(int q, Rng& rng)
{
    const double p1 = ProbabilityOne(q);
    const bool outcome = rng.Bernoulli(p1);
    // Zero the other branch; the kept amplitudes are the only nonzero
    // terms of the squared norm, and they are summed in index order.
    const size_t stride = size_t{1} << q;
    const size_t keep = outcome ? stride : 0;
    double norm_sq = 0.0;
    for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (size_t i0 = base; i0 < base + stride; ++i0) {
            amps_[i0 + stride - keep] = Complex(0.0, 0.0);
            norm_sq += std::norm(amps_[i0 + keep]);
        }
    }
    Normalize(norm_sq);
    return outcome;
}

void
StateVector::AmplitudeDamp(int q, double gamma, Rng& rng)
{
    XTALK_REQUIRE(gamma >= 0.0 && gamma <= 1.0,
                  "gamma " << gamma << " outside [0, 1]");
    if (gamma <= 0.0) {
        return;
    }
    const double p_jump = gamma * ProbabilityOne(q);
    const size_t stride = size_t{1} << q;
    // Each pass sums the new squared norm in index order as it writes.
    double norm_sq = 0.0;
    if (rng.Bernoulli(p_jump)) {
        // Jump: K1 = sqrt(gamma) |0><1| — the excited component relaxes
        // (moves to |0>); the zeroed |1> half adds nothing to the norm.
        for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
            for (size_t i0 = base; i0 < base + stride; ++i0) {
                amps_[i0] = amps_[i0 + stride];
                amps_[i0 + stride] = Complex(0.0, 0.0);
                norm_sq += std::norm(amps_[i0]);
            }
        }
    } else {
        // No jump: K0 = |0><0| + sqrt(1-gamma) |1><1|.
        const double scale = std::sqrt(1.0 - gamma);
        for (size_t base = 0; base < amps_.size(); base += 2 * stride) {
            for (size_t i = base; i < base + stride; ++i) {
                norm_sq += std::norm(amps_[i]);
            }
            for (size_t i = base + stride; i < base + 2 * stride; ++i) {
                amps_[i] *= scale;
                norm_sq += std::norm(amps_[i]);
            }
        }
    }
    Normalize(norm_sq);
}

void
StateVector::Dephase(int q, double p_flip, Rng& rng)
{
    XTALK_REQUIRE(p_flip >= 0.0 && p_flip <= 0.5 + 1e-12,
                  "dephasing probability " << p_flip << " outside [0, 0.5]");
    if (p_flip > 0.0 && rng.Bernoulli(p_flip)) {
        Apply1Q(q, kPauliMatrices[3]);
    }
}

Complex
StateVector::InnerProduct(const StateVector& other) const
{
    XTALK_REQUIRE(num_qubits_ == other.num_qubits_, "state width mismatch");
    Complex acc(0.0, 0.0);
    for (size_t i = 0; i < amps_.size(); ++i) {
        acc += std::conj(amps_[i]) * other.amps_[i];
    }
    return acc;
}

double
StateVector::Fidelity(const StateVector& other) const
{
    return std::norm(InnerProduct(other));
}

double
StateVector::Norm() const
{
    double ss = 0.0;
    for (const Complex& a : amps_) {
        ss += std::norm(a);
    }
    return std::sqrt(ss);
}

void
StateVector::Normalize(double norm_sq)
{
    const double norm = std::sqrt(norm_sq);
    XTALK_ASSERT(norm > 1e-12, "state collapsed to zero norm");
    const double inv = 1.0 / norm;
    for (Complex& a : amps_) {
        a *= inv;
    }
}

Matrix
CircuitUnitary(const Circuit& circuit)
{
    XTALK_REQUIRE(circuit.num_qubits() <= 10,
                  "CircuitUnitary limited to 10 qubits");
    const size_t dim = size_t{1} << circuit.num_qubits();
    Matrix u(dim, dim);
    for (size_t col = 0; col < dim; ++col) {
        StateVector sv(circuit.num_qubits());
        // Prepare basis state |col>.
        for (int q = 0; q < circuit.num_qubits(); ++q) {
            if ((col >> q) & 1) {
                sv.Apply1Q(q, kPauliMatrices[1]);
            }
        }
        sv.ApplyCircuit(circuit);
        for (size_t row = 0; row < dim; ++row) {
            u(row, col) = sv.amplitude(row);
        }
    }
    return u;
}

}  // namespace xtalk
