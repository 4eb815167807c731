#include "sim/noise_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/error.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"

namespace xtalk {

namespace {

constexpr GateKind kPaulis[] = {GateKind::kI, GateKind::kX, GateKind::kY,
                                GateKind::kZ};

// How each engine applies a planned gate and Pauli error @p pauli (an
// index into kPaulis): the state vector multiplies by the plan's matrix
// and the constant Pauli table, so a shot neither allocates nor
// evaluates trig; the stabilizer dispatches on the gate kind.
void
ApplyPlanned(StateVector& state, const NoisePlan& plan, size_t i)
{
    state.ApplyGate(plan.ops[i].gate, plan.unitaries[i]);
}

void
ApplyPlanned(StabilizerState& state, const NoisePlan& plan, size_t i)
{
    state.ApplyGate(plan.ops[i].gate);
}

void
ApplyPauli(StateVector& state, int pauli, QubitId q)
{
    if (pauli != 0) {
        state.Apply1Q(q, kPauliMatrices[pauli]);
    }
}

void
ApplyPauli(StabilizerState& state, int pauli, QubitId q)
{
    state.ApplyGate(Gate{kPaulis[pauli], {q}, {}, -1});
}

}  // namespace

double
CrosstalkAwareGateError(const Device& device,
                        const ScheduledCircuit& schedule, int index,
                        bool crosstalk)
{
    const Gate& gate = schedule.gates().at(index).gate;
    if (gate.IsBarrier() || gate.IsMeasure()) {
        return 0.0;
    }
    if (!gate.IsTwoQubitUnitary()) {
        return device.GateError(gate);
    }
    const EdgeId victim =
        device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
    XTALK_REQUIRE(victim >= 0, "two-qubit gate on uncoupled qubits: "
                                   << xtalk::ToString(gate));
    double err = device.CxError(victim);
    if (!crosstalk) {
        return err;
    }
    for (int j : schedule.OverlappingTwoQubitGates(index)) {
        const Gate& other = schedule.gates()[j].gate;
        const EdgeId aggressor =
            device.topology().FindEdge(other.qubits[0], other.qubits[1]);
        if (aggressor >= 0 && aggressor != victim) {
            err = std::max(err, device.ConditionalCxError(victim, aggressor));
        }
    }
    return err;
}

NoisePlan
BuildNoisePlan(const Device& device, const ScheduledCircuit& schedule,
               const NoisySimOptions& options)
{
    NoisePlan plan;
    std::map<QubitId, int> local_of_device;
    for (const TimedGate& tg : schedule.gates()) {
        for (QubitId q : tg.gate.qubits) {
            if (local_of_device.emplace(q, plan.width()).second) {
                plan.device_of_local.push_back(q);
            }
        }
    }
    const int width = plan.width();
    XTALK_REQUIRE(width > 0, "schedule touches no qubits");
    plan.num_clbits = std::max(1, schedule.ToCircuit().num_clbits());
    XTALK_REQUIRE(plan.num_clbits <= 64,
                  "classical bit " << plan.num_clbits - 1
                                   << " out of range; at most 64 supported");
    plan.readout_noise = options.readout_noise;

    // Per-qubit T1 and T_phi (1/T_phi = 1/T2 - 1/(2 T1); 0 = no pure
    // dephasing). Clocks start at +inf so that a qubit's first operation
    // adds no idle step (gates come in start order).
    std::vector<double> t1_ns(width), tphi_ns(width);
    std::vector<double> clock(width, std::numeric_limits<double>::infinity());
    for (int local = 0; options.decoherence && local < width; ++local) {
        const QubitId q = plan.device_of_local[local];
        t1_ns[local] = device.T1us(q) * 1000.0;
        const double inv =
            1.0 / (device.T2us(q) * 1000.0) - 1.0 / (2.0 * t1_ns[local]);
        tphi_ns[local] = inv > 0.0 ? 1.0 / inv : 0.0;
    }
    auto decohere = [&](int local, double from, double to) {
        if (!options.decoherence || to <= from) {
            return;
        }
        const double dt = to - from;
        DecoherenceStep step;
        step.qubit = local;
        step.gamma = 1.0 - std::exp(-dt / t1_ns[local]);
        step.dephases = tphi_ns[local] > 0.0;
        if (step.dephases) {
            step.p_dephase = 0.5 * (1.0 - std::exp(-dt / tphi_ns[local]));
        }
        plan.steps.push_back(step);
    };

    plan.ops.reserve(schedule.size());
    plan.unitaries.reserve(schedule.size());
    for (int i = 0; i < schedule.size(); ++i) {
        const TimedGate& tg = schedule.gates()[i];
        if (tg.gate.IsBarrier()) {
            continue;
        }
        PlannedOp op;
        op.gate = tg.gate;
        for (QubitId& q : op.gate.qubits) {
            q = local_of_device.at(q);
        }
        const double start = tg.start_ns;
        const double end = tg.end_ns();
        // Idle decoherence up to the op, then the busy interval: a
        // measure decays during its readout window before projecting; a
        // gate decays after its unitary and gate error.
        op.steps_begin = static_cast<int>(plan.steps.size());
        for (QubitId lq : op.gate.qubits) {
            decohere(lq, clock[lq], start);
        }
        if (op.gate.IsMeasure()) {
            const QubitId lq = op.gate.qubits[0];
            decohere(lq, start, end);
            if (options.readout_noise) {
                op.readout_error =
                    device.ReadoutError(plan.device_of_local[lq]);
            }
            ++plan.num_measures;
        } else if (options.gate_noise) {
            op.error = CrosstalkAwareGateError(device, schedule, i,
                                               options.crosstalk);
        }
        plan.unitaries.push_back(op.gate.IsMeasure() ? GateMatrix{}
                                                     : GateMatrixOf(op.gate));
        op.steps_mid = static_cast<int>(plan.steps.size());
        for (QubitId lq : op.gate.qubits) {
            if (!op.gate.IsMeasure()) {
                decohere(lq, start, end);
            }
            clock[lq] = end;
        }
        op.steps_end = static_cast<int>(plan.steps.size());
        plan.ops.push_back(std::move(op));
    }
    return plan;
}

template <typename State>
Counts
RunTrajectories(const NoisePlan& plan, State& state, int shots, Rng& rng)
{
    auto decohere = [&](int begin, int end) {
        for (int s = begin; s < end; ++s) {
            const DecoherenceStep& step = plan.steps[s];
            state.AmplitudeDamp(step.qubit, step.gamma, rng);
            if (step.dephases) {
                state.Dephase(step.qubit, step.p_dephase, rng);
            }
        }
    };
    Counts counts(plan.num_clbits);
    for (int shot = 0; shot < shots; ++shot) {
        state.Reset();
        uint64_t bits = 0;
        for (size_t i = 0; i < plan.ops.size(); ++i) {
            const PlannedOp& op = plan.ops[i];
            decohere(op.steps_begin, op.steps_mid);
            if (op.gate.IsMeasure()) {
                bool outcome = state.MeasureQubit(op.gate.qubits[0], rng);
                if (plan.readout_noise && rng.Bernoulli(op.readout_error)) {
                    outcome = !outcome;
                }
                if (outcome) {
                    bits |= 1ull << op.gate.cbit;
                }
            } else {
                ApplyPlanned(state, plan, i);
                if (op.error > 0.0 && rng.Bernoulli(op.error)) {
                    // Uniform non-identity Pauli string: 4^k - 1 choices.
                    const int choices = op.gate.qubits.size() == 1 ? 3 : 15;
                    int pick = static_cast<int>(rng.UniformInt(choices)) + 1;
                    for (QubitId q : op.gate.qubits) {
                        ApplyPauli(state, pick & 3, q);
                        pick >>= 2;
                    }
                }
            }
            decohere(op.steps_mid, op.steps_end);
        }
        counts.Record(bits);
    }
    return counts;
}

template Counts RunTrajectories(const NoisePlan&, StateVector&, int, Rng&);
template Counts RunTrajectories(const NoisePlan&, StabilizerState&, int,
                                Rng&);

}  // namespace xtalk
