#include "sim/gate_matrices.h"

#include <cmath>
#include <initializer_list>

#include "common/error.h"

namespace xtalk {

namespace {
constexpr Complex kI1(0.0, 1.0);

Complex
ExpI(double theta)
{
    return Complex(std::cos(theta), std::sin(theta));
}

GateMatrix
Mat2(Complex u00, Complex u01, Complex u10, Complex u11)
{
    return GateMatrix{2, {u00, u01, u10, u11}};
}

/** Unitary of @p kind; @p p holds its GateKindNumParams(kind) angles. */
GateMatrix
UnitaryOf(GateKind kind, const double* p)
{
    switch (kind) {
      case GateKind::kI: return kPauliMatrices[0];
      case GateKind::kX: return kPauliMatrices[1];
      case GateKind::kY: return kPauliMatrices[2];
      case GateKind::kZ: return kPauliMatrices[3];
      case GateKind::kH: {
        const double s = 1.0 / std::sqrt(2.0);
        return Mat2(s, s, s, -s);
      }
      case GateKind::kS: return Mat2(1, 0, 0, kI1);
      case GateKind::kSdg: return Mat2(1, 0, 0, -kI1);
      case GateKind::kT: return Mat2(1, 0, 0, ExpI(M_PI / 4));
      case GateKind::kTdg: return Mat2(1, 0, 0, ExpI(-M_PI / 4));
      case GateKind::kSX: {
        // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]].
        const Complex a(0.5, 0.5);
        const Complex b(0.5, -0.5);
        return Mat2(a, b, b, a);
      }
      case GateKind::kRX: {
        const double c = std::cos(p[0] / 2);
        const double s = std::sin(p[0] / 2);
        return Mat2(c, -kI1 * s, -kI1 * s, c);
      }
      case GateKind::kRY: {
        const double c = std::cos(p[0] / 2);
        const double s = std::sin(p[0] / 2);
        return Mat2(c, -s, s, c);
      }
      case GateKind::kRZ: return Mat2(ExpI(-p[0] / 2), 0, 0, ExpI(p[0] / 2));
      case GateKind::kU1: return Mat2(1, 0, 0, ExpI(p[0]));
      case GateKind::kU2: {
        // u2(phi, lambda).
        const double s = 1.0 / std::sqrt(2.0);
        return Mat2(Complex(s, 0), ExpI(p[1]) * -s, ExpI(p[0]) * s,
                    ExpI(p[0] + p[1]) * s);
      }
      case GateKind::kU3: {
        // u3(theta, phi, lambda).
        const double c = std::cos(p[0] / 2);
        const double s = std::sin(p[0] / 2);
        return Mat2(Complex(c, 0), ExpI(p[2]) * -s, ExpI(p[1]) * s,
                    ExpI(p[1] + p[2]) * c);
      }
      case GateKind::kCX:
        // Control = low bit (qubits[0]), target = high bit (qubits[1]).
        return GateMatrix{
            4, {1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0}};
      case GateKind::kCZ:
        return GateMatrix{
            4, {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1}};
      case GateKind::kSwap:
        return GateMatrix{
            4, {1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1}};
      default:
        XTALK_REQUIRE(false,
                      "no unitary for gate kind " << GateKindName(kind));
    }
}

Matrix
Mat(GateKind kind, std::initializer_list<double> params = {})
{
    return UnitaryOf(kind, params.begin()).ToMatrix();
}
}  // namespace

Matrix
GateMatrix::ToMatrix() const
{
    Matrix out(dim, dim);
    for (int r = 0; r < dim; ++r) {
        for (int c = 0; c < dim; ++c) {
            out(r, c) = (*this)(r, c);
        }
    }
    return out;
}

GateMatrix
GateMatrixOf(const Gate& gate)
{
    XTALK_REQUIRE(gate.IsUnitary(),
                  "no unitary for gate: " << xtalk::ToString(gate));
    XTALK_REQUIRE(static_cast<int>(gate.params.size()) >=
                      GateKindNumParams(gate.kind),
                  "missing parameters: " << xtalk::ToString(gate));
    return UnitaryOf(gate.kind, gate.params.data());
}

Matrix
GateUnitary(const Gate& gate)
{
    return GateMatrixOf(gate).ToMatrix();
}

Matrix
MatI()
{
    return Mat(GateKind::kI);
}

Matrix
MatX()
{
    return Mat(GateKind::kX);
}

Matrix
MatY()
{
    return Mat(GateKind::kY);
}

Matrix
MatZ()
{
    return Mat(GateKind::kZ);
}

Matrix
MatH()
{
    return Mat(GateKind::kH);
}

Matrix
MatS()
{
    return Mat(GateKind::kS);
}

Matrix
MatSdg()
{
    return Mat(GateKind::kSdg);
}

Matrix
MatT()
{
    return Mat(GateKind::kT);
}

Matrix
MatTdg()
{
    return Mat(GateKind::kTdg);
}

Matrix
MatSX()
{
    return Mat(GateKind::kSX);
}

Matrix
MatRX(double theta)
{
    return Mat(GateKind::kRX, {theta});
}

Matrix
MatRY(double theta)
{
    return Mat(GateKind::kRY, {theta});
}

Matrix
MatRZ(double theta)
{
    return Mat(GateKind::kRZ, {theta});
}

Matrix
MatU1(double lambda)
{
    return Mat(GateKind::kU1, {lambda});
}

Matrix
MatU2(double phi, double lambda)
{
    return Mat(GateKind::kU2, {phi, lambda});
}

Matrix
MatU3(double theta, double phi, double lambda)
{
    return Mat(GateKind::kU3, {theta, phi, lambda});
}

Matrix
MatCX()
{
    return Mat(GateKind::kCX);
}

Matrix
MatCZ()
{
    return Mat(GateKind::kCZ);
}

Matrix
MatSwap()
{
    return Mat(GateKind::kSwap);
}

}  // namespace xtalk
