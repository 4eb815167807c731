#include "sim/noisy_simulator.h"

#include "common/error.h"
#include "sim/noise_plan.h"
#include "sim/statevector.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

NoisySimulator::NoisySimulator(const Device& device, NoisySimOptions options)
    : device_(&device), options_(options), rng_(options.seed)
{
}

double
NoisySimulator::EffectiveGateError(const ScheduledCircuit& schedule,
                                   int index) const
{
    return CrosstalkAwareGateError(*device_, schedule, index,
                                   options_.crosstalk);
}

Counts
NoisySimulator::Run(const ScheduledCircuit& schedule, const RunSpec& spec)
{
    const int shots = spec.shots;
    XTALK_REQUIRE(shots > 0, "shots must be positive");
    if (spec.seed_override) {
        rng_ = Rng(*spec.seed_override);
    }
    telemetry::ScopedSpan span("sim.statevector.run");
    if (telemetry::Enabled()) {
        telemetry::SetLabel("sim.backend", "statevector");
        telemetry::GetCounter("sim.statevector.runs").Add(1);
        telemetry::GetCounter("sim.statevector.shots")
            .Add(static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.shots")
            .Add(static_cast<uint64_t>(shots));
    }
    const NoisePlan plan = BuildNoisePlan(*device_, schedule, options_);
    XTALK_REQUIRE(plan.width() <= 22, "schedule touches " << plan.width()
                                                          << " qubits; max 22");
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sim.statevector.gate_applications")
            .Add((plan.ops.size() - plan.num_measures) *
                 static_cast<uint64_t>(shots));
        telemetry::GetCounter("sim.statevector.measurements")
            .Add(static_cast<uint64_t>(plan.num_measures) *
                 static_cast<uint64_t>(shots));
    }
    return RunTrajectories<StateVector>(plan, shots, rng_);
}

std::vector<double>
NoisySimulator::IdealProbabilities(const ScheduledCircuit& schedule) const
{
    // Every noise toggle off: the plan is just the compacted ops, which
    // run here on one state over the whole compact register.
    const NoisePlan plan = BuildNoisePlan(
        *device_, schedule, NoisySimOptions{false, false, false, false});
    XTALK_REQUIRE(plan.width() <= 22, "bad schedule width " << plan.width());
    StateVector sv(plan.width());
    std::vector<std::pair<int, int>> measures;  // (compact qubit, cbit)
    for (const PlannedOp& op : plan.ops) {
        Gate gate = op.gate;
        for (QubitId& q : gate.qubits) {
            q = plan.clusters[op.cluster][q];
        }
        if (gate.IsMeasure()) {
            measures.push_back({gate.qubits[0], gate.cbit});
        } else {
            sv.ApplyGate(gate);
        }
    }
    std::vector<double> out(size_t{1} << plan.num_clbits, 0.0);
    const std::vector<double> basis_probs = sv.Probabilities();
    for (size_t basis = 0; basis < basis_probs.size(); ++basis) {
        uint64_t bits = 0;
        for (const auto& [q, c] : measures) {
            if ((basis >> q) & 1) {
                bits |= 1ull << c;
            }
        }
        out[bits] += basis_probs[basis];
    }
    return out;
}

}  // namespace xtalk
