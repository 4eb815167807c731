#include "sim/stabilizer.h"

#include <cmath>

#include "common/error.h"
#include "sim/noise_plan.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

StabilizerState::StabilizerState(int num_qubits)
    : Tableau(num_qubits), scratch_(rows_.front())
{
}

void
StabilizerState::RowSum(TableauRow& h, const TableauRow& i,
                        bool track_phase) const
{
    if (track_phase) {
        // Phase exponent of i^k in the product, tracked mod 4 (CHP's g).
        int phase = (h.r ? 2 : 0) + (i.r ? 2 : 0);
        for (int q = 0; q < num_qubits_; ++q) {
            const int x1 = i.GetX(q), z1 = i.GetZ(q);
            const int x2 = h.GetX(q), z2 = h.GetZ(q);
            if (x1 == 0 && z1 == 0) {
                continue;
            }
            if (x1 == 1 && z1 == 1) {
                phase += z2 - x2;                 // Y * P.
            } else if (x1 == 1) {
                phase += z2 * (2 * x2 - 1);       // X * P.
            } else {
                phase += x2 * (1 - 2 * z2);       // Z * P.
            }
        }
        phase = ((phase % 4) + 4) % 4;
        XTALK_ASSERT(phase == 0 || phase == 2, "rowsum produced odd i-power");
        h.r = (phase == 2);
    }
    for (size_t w = 0; w < h.x.size(); ++w) {
        h.x[w] ^= i.x[w];
        h.z[w] ^= i.z[w];
    }
}

double
StabilizerState::ProbabilityOne(int q) const
{
    for (int p = num_qubits_; p < 2 * num_qubits_; ++p) {
        if (rows_[p].GetX(q)) {
            return 0.5;  // Z_q anticommutes with a stabilizer: random.
        }
    }
    // Deterministic: accumulate destabilizer partners into scratch.
    scratch_.Clear();
    for (int i = 0; i < num_qubits_; ++i) {
        if (rows_[i].GetX(q)) {
            RowSum(scratch_, rows_[i + num_qubits_]);
        }
    }
    return scratch_.r ? 1.0 : 0.0;
}

bool
StabilizerState::MeasureQubit(int q, Rng& rng)
{
    XTALK_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    int p = -1;
    for (int row = num_qubits_; row < 2 * num_qubits_; ++row) {
        if (rows_[row].GetX(q)) {
            p = row;
            break;
        }
    }
    if (p >= 0) {
        // Random outcome. Destabilizer rows may anticommute with row p
        // (odd i-power), but their phase bits are never read — skip the
        // phase bookkeeping for them instead of asserting on it.
        for (int row = 0; row < 2 * num_qubits_; ++row) {
            if (row != p && rows_[row].GetX(q)) {
                RowSum(rows_[row], rows_[p],
                       /*track_phase=*/row >= num_qubits_);
            }
        }
        rows_[p - num_qubits_] = rows_[p];
        rows_[p].Clear();
        const bool outcome = rng.Bernoulli(0.5);
        rows_[p].SetZ(q, true);
        rows_[p].r = outcome;
        return outcome;
    }
    return ProbabilityOne(q) == 1.0;  // Deterministic outcome.
}

void
StabilizerState::AmplitudeDamp(int q, double gamma, Rng& rng)
{
    // Pauli twirl of amplitude damping.
    const double px = gamma / 4.0;
    const double pz_ad = (1.0 - gamma / 2.0 - std::sqrt(1.0 - gamma)) / 2.0;
    const double u = rng.Uniform();
    if (u < px) {
        ApplyX(q);
    } else if (u < 2.0 * px) {
        ApplyY(q);
    } else if (u < 2.0 * px + pz_ad) {
        ApplyZ(q);
    }
}

void
StabilizerState::Dephase(int q, double p_flip, Rng& rng)
{
    if (rng.Bernoulli(p_flip)) {
        ApplyZ(q);
    }
}

StabilizerSimulator::StabilizerSimulator(const Device& device,
                                         NoisySimOptions options)
    : device_(&device), options_(options), rng_(options.seed)
{
}

Counts
StabilizerSimulator::Run(const ScheduledCircuit& schedule,
                         const RunSpec& spec)
{
    const int shots = spec.shots;
    XTALK_REQUIRE(shots > 0, "shots must be positive");
    if (spec.seed_override) {
        rng_ = Rng(*spec.seed_override);
    }
    telemetry::ScopedSpan span("sim.stabilizer.run");
    if (telemetry::Enabled()) {
        telemetry::SetLabel("sim.backend", "stabilizer");
        telemetry::GetCounter("sim.stabilizer.runs").Add(1);
        telemetry::GetCounter("sim.stabilizer.shots")
            .Add(static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.shots")
            .Add(static_cast<uint64_t>(shots));
    }
    const NoisePlan plan = BuildNoisePlan(*device_, schedule, options_);
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.stabilizer.gate_applications")
            .Add((plan.ops.size() - plan.num_measures) *
                 static_cast<uint64_t>(shots));
    }
    return RunTrajectories<StabilizerState>(plan, shots, rng_);
}

}  // namespace xtalk
