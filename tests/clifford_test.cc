/**
 * @file
 * Unit and property tests for the Clifford tableau engine and the
 * enumerated Clifford groups. The central property: for random Clifford
 * circuits, executing the circuit followed by Tableau::SynthesizeInverse
 * must restore |0..0> exactly (up to global phase), verified against the
 * state-vector simulator.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "circuit/circuit.h"
#include "common/error.h"
#include "clifford/group.h"
#include "clifford/tableau.h"
#include "common/rng.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"

namespace xtalk {
namespace {

TEST(Tableau, IdentityIsIdentity)
{
    for (int n = 1; n <= 4; ++n) {
        EXPECT_TRUE(Tableau(n).IsIdentity()) << "n=" << n;
    }
}

TEST(Tableau, HIsSelfInverse)
{
    Tableau t(1);
    t.ApplyH(0);
    EXPECT_FALSE(t.IsIdentity());
    t.ApplyH(0);
    EXPECT_TRUE(t.IsIdentity());
}

TEST(Tableau, SFourthPowerIsIdentity)
{
    Tableau t(1);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(t.IsIdentity(), i == 0);
        t.ApplyS(0);
    }
    EXPECT_TRUE(t.IsIdentity());
}

TEST(Tableau, SdgUndoesS)
{
    Tableau t(1);
    t.ApplyS(0);
    t.ApplySdg(0);
    EXPECT_TRUE(t.IsIdentity());
}

TEST(Tableau, CXIsSelfInverse)
{
    Tableau t(2);
    t.ApplyCX(0, 1);
    EXPECT_FALSE(t.IsIdentity());
    t.ApplyCX(0, 1);
    EXPECT_TRUE(t.IsIdentity());
}

TEST(Tableau, SwapEqualsThreeCX)
{
    Tableau by_swap(2);
    by_swap.ApplySwap(0, 1);
    Tableau by_cx(2);
    by_cx.ApplyCX(0, 1);
    by_cx.ApplyCX(1, 0);
    by_cx.ApplyCX(0, 1);
    EXPECT_EQ(by_swap, by_cx);
}

TEST(Tableau, HMapsXToZ)
{
    Tableau t(1);
    t.ApplyH(0);
    // Destabilizer (image of X) should now be +Z.
    EXPECT_FALSE(t.destabilizer(0).GetX(0));
    EXPECT_TRUE(t.destabilizer(0).GetZ(0));
    EXPECT_FALSE(t.destabilizer(0).r);
    // Stabilizer (image of Z) should now be +X.
    EXPECT_TRUE(t.stabilizer(0).GetX(0));
    EXPECT_FALSE(t.stabilizer(0).GetZ(0));
    EXPECT_FALSE(t.stabilizer(0).r);
}

TEST(Tableau, XConjugatesZToMinusZ)
{
    Tableau t(1);
    t.ApplyX(0);
    EXPECT_TRUE(t.stabilizer(0).r);    // Z -> -Z.
    EXPECT_FALSE(t.destabilizer(0).r); // X -> +X.
}

TEST(Tableau, RejectsNonCliffordGates)
{
    Tableau t(1);
    Gate t_gate{GateKind::kT, {0}, {}, -1};
    EXPECT_THROW(t.ApplyGate(t_gate), Error);
    Gate rx{GateKind::kRX, {0}, {0.3}, -1};
    EXPECT_THROW(t.ApplyGate(rx), Error);
}

TEST(Tableau, KeyDistinguishesPhases)
{
    Tableau a(1);
    Tableau b(1);
    b.ApplyX(0);  // Same symplectic part, different sign bits.
    EXPECT_NE(a.Key(), b.Key());
}

TEST(Tableau, ResetReturnsToIdentity)
{
    Tableau t(3);
    t.ApplyH(0);
    t.ApplyCX(0, 2);
    t.ApplyS(1);
    t.ApplyY(2);
    ASSERT_FALSE(t.IsIdentity());
    t.Reset();
    EXPECT_TRUE(t.IsIdentity());

    // The stabilizer state is the same tableau plus measurement: after a
    // random-outcome measurement, Reset() is |000> again.
    Rng rng(7);
    StabilizerState state(3);
    state.ApplyH(0);
    state.ApplyCX(0, 1);
    ASSERT_DOUBLE_EQ(state.ProbabilityOne(0), 0.5);
    state.MeasureQubit(0, rng);
    state.Reset();
    for (int q = 0; q < 3; ++q) {
        EXPECT_DOUBLE_EQ(state.ProbabilityOne(q), 0.0) << "q=" << q;
        EXPECT_FALSE(state.MeasureQubit(q, rng)) << "q=" << q;
    }
}

/** Build a random Clifford circuit over n qubits. */
Circuit
RandomCliffordCircuit(int n, int num_gates, Rng& rng)
{
    Circuit c(n);
    for (int i = 0; i < num_gates; ++i) {
        const int choice = static_cast<int>(rng.UniformInt(n >= 2 ? 7 : 5));
        const int q = static_cast<int>(rng.UniformInt(n));
        int q2 = q;
        if (n >= 2) {
            while (q2 == q) {
                q2 = static_cast<int>(rng.UniformInt(n));
            }
        }
        switch (choice) {
          case 0: c.H(q); break;
          case 1: c.S(q); break;
          case 2: c.X(q); break;
          case 3: c.Z(q); break;
          case 4: c.Sdg(q); break;
          case 5: c.CX(q, q2); break;
          default: c.CZ(q, q2); break;
        }
    }
    return c;
}

class TableauInverseProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableauInverseProperty, SynthesizedInverseRestoresInitialState)
{
    const int n = GetParam();
    Rng rng(1234 + n);
    for (int trial = 0; trial < 25; ++trial) {
        const Circuit circuit = RandomCliffordCircuit(n, 12 + 3 * n, rng);
        const Tableau t = Tableau::FromCircuit(circuit);
        const Circuit inverse = t.SynthesizeInverse();

        // Tableau-level check.
        Tableau composed = t;
        for (const Gate& g : inverse.gates()) {
            composed.ApplyGate(g);
        }
        EXPECT_TRUE(composed.IsIdentity()) << "trial " << trial;

        // State-vector-level check on a non-trivial input state.
        StateVector sv(n);
        Circuit prep(n);
        for (int q = 0; q < n; ++q) {
            if (rng.Bernoulli(0.5)) {
                prep.H(q);
            }
            if (rng.Bernoulli(0.5)) {
                prep.X(q);
            }
        }
        sv.ApplyCircuit(prep);
        StateVector reference = sv;
        sv.ApplyCircuit(circuit);
        sv.ApplyCircuit(inverse);
        EXPECT_NEAR(sv.Fidelity(reference), 1.0, 1e-9) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, TableauInverseProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

class TableauDecomposeProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableauDecomposeProperty, DecomposeReproducesTheCliffordTableau)
{
    const int n = GetParam();
    Rng rng(777 + n);
    for (int trial = 0; trial < 20; ++trial) {
        const Circuit circuit = RandomCliffordCircuit(n, 10 + 2 * n, rng);
        const Tableau t = Tableau::FromCircuit(circuit);
        const Circuit decomposed = t.Decompose();
        const Tableau rebuilt = Tableau::FromCircuit(decomposed);
        EXPECT_EQ(t, rebuilt) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, TableauDecomposeProperty,
                         ::testing::Values(1, 2, 3));

TEST(CliffordGroup, OneQubitGroupHas24Elements)
{
    const CliffordGroup& group = CliffordGroup::Shared(1);
    EXPECT_EQ(group.size(), 24u);
}

TEST(CliffordGroup, TwoQubitGroupHas11520Elements)
{
    const CliffordGroup& group = CliffordGroup::Shared(2);
    EXPECT_EQ(group.size(), 11520u);
}

TEST(CliffordGroup, ElementsAreDistinct)
{
    const CliffordGroup& group = CliffordGroup::Shared(1);
    std::set<std::string> keys;
    for (size_t i = 0; i < group.size(); ++i) {
        keys.insert(Tableau::FromCircuit(group.circuit(i)).Key());
    }
    EXPECT_EQ(keys.size(), group.size());
}

TEST(CliffordGroup, FindLocatesEveryElement)
{
    const CliffordGroup& group = CliffordGroup::Shared(1);
    for (size_t i = 0; i < group.size(); ++i) {
        const Tableau t = Tableau::FromCircuit(group.circuit(i));
        EXPECT_EQ(group.Find(t), i);
    }
}

TEST(CliffordGroup, SampleIsRoughlyUniform)
{
    const CliffordGroup& group = CliffordGroup::Shared(1);
    Rng rng(99);
    std::vector<int> histogram(group.size(), 0);
    const int draws = 24000;
    for (int i = 0; i < draws; ++i) {
        ++histogram[group.Sample(rng)];
    }
    // Expected 1000 per element; allow generous slack.
    for (size_t i = 0; i < group.size(); ++i) {
        EXPECT_GT(histogram[i], 700) << "element " << i;
        EXPECT_LT(histogram[i], 1300) << "element " << i;
    }
}

TEST(CliffordGroup, RejectsUnsupportedWidths)
{
    EXPECT_THROW(CliffordGroup(3), Error);
    EXPECT_THROW(CliffordGroup::Shared(0), Error);
}

TEST(CliffordGroup, GroupCircuitsAreShortestWords)
{
    // The identity element must be the empty circuit, and no 1q element
    // needs more than 7 generator gates (known diameter bound for {H,S}).
    const CliffordGroup& group = CliffordGroup::Shared(1);
    EXPECT_EQ(group.circuit(0).size(), 0);
    for (size_t i = 0; i < group.size(); ++i) {
        EXPECT_LE(group.circuit(i).size(), 7) << "element " << i;
    }
}

}  // namespace
}  // namespace xtalk
