#include "sim/noise_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"

namespace xtalk {

namespace {

// How each engine applies a planned gate and Pauli error @p pauli (0-3
// for I, X, Y, Z): the state vector multiplies by the plan's matrix and
// the constant Pauli table, so a shot neither allocates nor evaluates
// trig; the stabilizer dispatches on the gate kind.
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
    switch (pauli) {
      case 1: state.ApplyX(q); return;
      case 2: state.ApplyY(q); return;
      case 3: state.ApplyZ(q); return;
      default: return;
    }
}

// Crosstalk-aware error of each two-qubit gate of @p schedule (0 for
// other gates), equal to CrosstalkAwareGateError but found in one sweep
// in start order: each gate meets the earlier-starting two-qubit gates
// that may still run, and max over conditional rates ignores order.
std::vector<double>
TwoQubitGateErrors(const Device& device, const ScheduledCircuit& schedule,
                   bool crosstalk)
{
    const std::vector<TimedGate>& gates = schedule.gates();
    std::vector<EdgeId> edge(gates.size(), -1);
    std::vector<double> err(gates.size(), 0.0);
    std::vector<int> running;
    for (int i = 0; i < schedule.size(); ++i) {
        const Gate& gate = gates[i].gate;
        if (!gate.IsTwoQubitUnitary()) {
            continue;
        }
        edge[i] = device.topology().FindEdge(gate.qubits[0], gate.qubits[1]);
        XTALK_REQUIRE(edge[i] >= 0, "two-qubit gate on uncoupled qubits: "
                                        << xtalk::ToString(gate));
        err[i] = device.CxError(edge[i]);
        if (!crosstalk) {
            continue;
        }
        // A gate that ends before this one starts overlaps no later one.
        std::erase_if(running, [&](int j) {
            return gates[j].end_ns() < gates[i].start_ns;
        });
        for (int j : running) {
            if (edge[j] != edge[i] && TimedGate::Overlaps(gates[i], gates[j])) {
                err[i] = std::max(err[i],
                                  device.ConditionalCxError(edge[i], edge[j]));
                err[j] = std::max(err[j],
                                  device.ConditionalCxError(edge[j], edge[i]));
            }
        }
        running.push_back(i);
    }
    return err;
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
    for (const TimedGate& tg : schedule.gates()) {
        ValidateGate(tg.gate, schedule.num_qubits());
        if (tg.gate.IsMeasure()) {
            plan.num_clbits = std::max(plan.num_clbits, tg.gate.cbit + 1);
        }
    }
    XTALK_REQUIRE(plan.num_clbits <= 64,
                  "classical bit " << plan.num_clbits - 1
                                   << " out of range; at most 64 supported");
    plan.readout_noise = options.readout_noise;

    // Clusters: each op on two qubits merges theirs, so that every qubit
    // ends up labelled with the first compact qubit of its cluster.
    std::vector<int> first_of(width);
    std::iota(first_of.begin(), first_of.end(), 0);
    for (const TimedGate& tg : schedule.gates()) {
        if (tg.gate.IsBarrier()) {
            continue;
        }
        const std::vector<QubitId>& qubits = tg.gate.qubits;
        for (size_t k = 1; k < qubits.size(); ++k) {
            const int a = first_of[local_of_device.at(qubits[0])];
            const int b = first_of[local_of_device.at(qubits[k])];
            std::replace(first_of.begin(), first_of.end(), std::max(a, b),
                         std::min(a, b));
        }
    }
    std::vector<int> cluster_of_local(width);
    std::vector<int> index_in_cluster(width);
    for (int local = 0; local < width; ++local) {
        if (first_of[local] == local) {
            cluster_of_local[local] = static_cast<int>(plan.clusters.size());
            plan.clusters.emplace_back();
        } else {
            cluster_of_local[local] = cluster_of_local[first_of[local]];
        }
        std::vector<int>& cluster = plan.clusters[cluster_of_local[local]];
        index_in_cluster[local] = static_cast<int>(cluster.size());
        cluster.push_back(local);
    }

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
        step.cluster = cluster_of_local[local];
        step.qubit = index_in_cluster[local];
        step.gamma = 1.0 - std::exp(-dt / t1_ns[local]);
        step.dephases = tphi_ns[local] > 0.0;
        if (step.dephases) {
            step.p_dephase = 0.5 * (1.0 - std::exp(-dt / tphi_ns[local]));
        }
        plan.steps.push_back(step);
    };

    const std::vector<double> two_qubit_errors =
        options.gate_noise
            ? TwoQubitGateErrors(device, schedule, options.crosstalk)
            : std::vector<double>();
    plan.ops.reserve(schedule.size());
    plan.unitaries.reserve(schedule.size());
    std::vector<int> locals;
    for (int i = 0; i < schedule.size(); ++i) {
        const TimedGate& tg = schedule.gates()[i];
        if (tg.gate.IsBarrier()) {
            continue;
        }
        PlannedOp op;
        op.gate = tg.gate;
        locals.clear();
        for (QubitId& q : op.gate.qubits) {
            locals.push_back(local_of_device.at(q));
            q = index_in_cluster[locals.back()];
        }
        op.cluster = cluster_of_local[locals[0]];
        const double start = tg.start_ns;
        const double end = tg.end_ns();
        // Idle decoherence up to the op, then the busy interval: a
        // measure decays during its readout window before projecting; a
        // gate decays after its unitary and gate error.
        op.steps_begin = static_cast<int>(plan.steps.size());
        for (int lq : locals) {
            decohere(lq, clock[lq], start);
        }
        if (op.gate.IsMeasure()) {
            const int lq = locals[0];
            decohere(lq, start, end);
            if (options.readout_noise) {
                op.readout_error =
                    device.ReadoutError(plan.device_of_local[lq]);
            }
            ++plan.num_measures;
        } else if (options.gate_noise) {
            op.error = op.gate.IsTwoQubitUnitary() ? two_qubit_errors[i]
                                                   : device.GateError(tg.gate);
        }
        plan.unitaries.push_back(op.gate.IsMeasure() ? GateMatrix{}
                                                     : GateMatrixOf(op.gate));
        op.steps_mid = static_cast<int>(plan.steps.size());
        for (int lq : locals) {
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
RunTrajectories(const NoisePlan& plan, int shots, Rng& rng)
{
    std::vector<State> states;
    states.reserve(plan.clusters.size());
    for (const std::vector<int>& cluster : plan.clusters) {
        states.emplace_back(static_cast<int>(cluster.size()));
    }
    auto decohere = [&](int begin, int end) {
        for (int s = begin; s < end; ++s) {
            const DecoherenceStep& step = plan.steps[s];
            State& state = states[step.cluster];
            state.AmplitudeDamp(step.qubit, step.gamma, rng);
            if (step.dephases) {
                state.Dephase(step.qubit, step.p_dephase, rng);
            }
        }
    };
    Counts counts(plan.num_clbits);
    for (int shot = 0; shot < shots; ++shot) {
        for (State& state : states) {
            state.Reset();
        }
        uint64_t bits = 0;
        for (size_t i = 0; i < plan.ops.size(); ++i) {
            const PlannedOp& op = plan.ops[i];
            State& state = states[op.cluster];
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

template Counts RunTrajectories<StateVector>(const NoisePlan&, int, Rng&);
template Counts RunTrajectories<StabilizerState>(const NoisePlan&, int,
                                                 Rng&);

}  // namespace xtalk
