#include "requests.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "circuit/qasm.h"
#include "common/rng.h"
#include "device/ibmq_devices.h"
#include "sim/statevector.h"
#include "workloads/hidden_shift.h"
#include "workloads/qaoa.h"
#include "workloads/swap_circuits.h"

namespace svcbench {

using xtalk::Circuit;
using xtalk::Device;

const std::vector<std::string>&
DeviceNames()
{
    static const std::vector<std::string> names{"poughkeepsie",
                                                "johannesburg", "boeblingen"};
    return names;
}

const Device&
DeviceByName(const std::string& name)
{
    static const std::map<std::string, Device> devices{
        {"poughkeepsie", xtalk::MakePoughkeepsie()},
        {"johannesburg", xtalk::MakeJohannesburg()},
        {"boeblingen", xtalk::MakeBoeblingen()}};
    const auto it = devices.find(name);
    if (it == devices.end()) {
        throw std::invalid_argument("unknown device " + name);
    }
    return it->second;
}

namespace {

std::string
SchedulerLabel(const SchedulerChoice& scheduler)
{
    if (scheduler.name != "xtalk") {
        return scheduler.name;
    }
    std::ostringstream label;
    label << "xtalk@" << scheduler.omega;
    return label.str();
}

Template
Finish(Template t, const std::string& device,
       const SchedulerChoice& scheduler, int shots)
{
    t.label = device + "/" + t.label + "/" + SchedulerLabel(scheduler);
    t.request.id = t.label;
    t.request.qasm = xtalk::ToQasm(t.logical);
    t.request.device = device;
    t.request.scheduler = scheduler.name;
    t.request.omega = scheduler.omega;
    t.request.simulate_shots = shots;
    t.wire = t.request.ToJson();
    return t;
}

/** @p prefix followed by @p n in decimal. */
std::string
Numbered(const char* prefix, long n)
{
    std::ostringstream out;
    out << prefix << n;
    return out.str();
}

/** Append @p suffix to the label and request id. */
void
Relabel(Template* t, const std::string& suffix)
{
    t->label += suffix;
    t->request.id = t->label;
    t->wire = t->request.ToJson();
}

/** The compact chain 0..n-1 on a linear device of n qubits. */
std::vector<xtalk::QubitId>
Chain(int n)
{
    std::vector<xtalk::QubitId> chain(n);
    std::iota(chain.begin(), chain.end(), 0);
    return chain;
}

/** A nonzero 4-bit hidden shift drawn from @p rng. */
unsigned
DrawShift(xtalk::Rng& rng)
{
    return 1 + static_cast<unsigned>(rng.UniformInt(15));
}

const std::vector<SchedulerChoice>&
WarmCompileSchedulers()
{
    static const std::vector<SchedulerChoice> schedulers{
        {"xtalk", 0.25}, {"xtalk", 0.5}, {"xtalk", 0.75},
        {"auto", 0.5},   {"portfolio", 0.5}};
    return schedulers;
}

Template
MakeHiddenShift(const std::string& device, unsigned shift, bool redundant,
                const SchedulerChoice& scheduler, int shots)
{
    const xtalk::HiddenShiftOptions options{shift, redundant};
    Template t;
    t.family = Family::kHiddenShift;
    t.label = Numbered(redundant ? "hs-redundant-s" : "hs-s", shift);
    t.logical = xtalk::BuildHiddenShiftCircuit(xtalk::MakeLinearDevice(4),
                                               {0, 1, 2, 3}, options);
    t.hidden_shift = xtalk::HiddenShiftExpectedOutcome(options);
    return Finish(std::move(t), device, scheduler, shots);
}

Template
MakeSwapBell(const std::string& device, int length,
             const SchedulerChoice& scheduler)
{
    const xtalk::SwapBenchmark bench = xtalk::BuildSwapBenchmark(
        xtalk::MakeLinearDevice(length), 0, length - 1);
    Template t;
    t.family = Family::kSwapBell;
    t.label = Numbered("swapbell", length);
    t.logical = bench.circuit;
    t.logical.Measure(bench.bell_left, 0);
    t.logical.Measure(bench.bell_right, 1);
    return Finish(std::move(t), device, scheduler, 0);
}

}  // namespace

Template
MakeQaoa(const std::string& device, int qubits, uint64_t angle_seed,
         const SchedulerChoice& scheduler, int shots)
{
    Template t;
    t.family = Family::kQaoa;
    t.label = Numbered("qaoa", qubits);
    t.logical = xtalk::BuildQaoaCircuit(xtalk::MakeLinearDevice(qubits),
                                        Chain(qubits),
                                        xtalk::QaoaOptions{3, angle_seed});
    return Finish(std::move(t), device, scheduler, shots);
}

std::vector<Template>
WarmCompileCatalogue()
{
    xtalk::Rng rng(0x3A1C);
    std::vector<Template> out;
    for (const std::string& device : DeviceNames()) {
        std::vector<uint64_t> angles;
        for (int n = 4; n <= 8; ++n) {
            angles.push_back(rng.Next());
        }
        const unsigned plain_shift = DrawShift(rng);
        const unsigned redundant_shift = DrawShift(rng);
        for (const SchedulerChoice& scheduler : WarmCompileSchedulers()) {
            for (int n = 4; n <= 8; ++n) {
                out.push_back(MakeQaoa(device, n, angles[n - 4], scheduler, 0));
            }
            out.push_back(
                MakeHiddenShift(device, plain_shift, false, scheduler, 0));
            out.push_back(
                MakeHiddenShift(device, redundant_shift, true, scheduler, 0));
            out.push_back(MakeSwapBell(device, 4, scheduler));
            out.push_back(MakeSwapBell(device, 5, scheduler));
        }
    }
    return out;
}

std::vector<Template>
WarmCompileQualityCatalogue()
{
    std::vector<Template> out;
    for (const Template& t : WarmCompileCatalogue()) {
        const bool quality_circuit =
            t.family == Family::kHiddenShift ||
            (t.family == Family::kQaoa && t.logical.num_qubits() <= 6);
        if (quality_circuit && t.request.scheduler == "xtalk" &&
            t.request.omega == 0.5) {
            Template simulated = t;
            simulated.request.simulate_shots = 8192;
            Relabel(&simulated, "/sim");
            out.push_back(std::move(simulated));
        }
    }
    return out;
}

std::vector<Template>
MixedWarmCatalogue()
{
    xtalk::Rng rng(0x5EED);
    const SchedulerChoice xtalk{"xtalk", 0.5};
    std::vector<Template> out;
    for (int copy = 0; copy < 3; ++copy) {
        // QAOA-7 costs as much to simulate as the rest of a copy; once
        // per catalogue keeps 100+ warm samples in a 20 s run.
        for (int n = 4; n <= (copy == 0 ? 7 : 6); ++n) {
            out.push_back(MakeQaoa("poughkeepsie", n, rng.Next(), xtalk, 8192));
            Relabel(&out.back(), Numbered("#", copy));
        }
        for (bool redundant : {false, true}) {
            out.push_back(MakeHiddenShift("poughkeepsie", DrawShift(rng),
                                          redundant, xtalk, 8192));
            // Copies stay distinct even when their shifts coincide.
            Relabel(&out.back(), Numbered("#", copy));
        }
    }
    return out;
}

Template
ColdRequest(const std::string& device, const std::string& save_path)
{
    xtalk::Rng rng(0xC01D);
    Template t = MakeHiddenShift(device, DrawShift(rng), false,
                                 {"xtalk", 0.5}, 1024);
    t.request.save_characterization_path = save_path;
    Relabel(&t, "/cold");
    return t;
}

Template
FillRequest(const std::string& device, const std::string& save_path)
{
    Template t = MakeQaoa(device, 4, 7, {"xtalk", 0.5}, 0);
    t.request.save_characterization_path = save_path;
    Relabel(&t, "/fill");
    return t;
}

std::vector<double>
IdealDistribution(const Circuit& logical)
{
    xtalk::StateVector state(logical.num_qubits());
    std::vector<std::pair<int, int>> measures;  // (qubit, clbit)
    for (const xtalk::Gate& gate : logical.gates()) {
        if (gate.IsMeasure()) {
            measures.push_back({gate.qubits[0], gate.cbit});
        } else if (gate.IsUnitary()) {
            state.ApplyGate(gate);
        }
    }
    std::vector<double> out(size_t{1} << logical.num_clbits(), 0.0);
    const std::vector<double> probabilities = state.Probabilities();
    for (size_t basis = 0; basis < probabilities.size(); ++basis) {
        uint64_t bits = 0;
        for (const auto& [qubit, clbit] : measures) {
            if ((basis >> qubit) & 1) {
                bits |= uint64_t{1} << clbit;
            }
        }
        out[bits] += probabilities[basis];
    }
    return out;
}

bool
ParseCounts(const std::string& text, std::map<uint64_t, int>* histogram)
{
    std::istringstream in(text);
    std::string header;
    if (!std::getline(in, header) || header.rfind("counts(", 0) != 0) {
        return false;
    }
    histogram->clear();
    std::string bits;
    int count = 0;
    while (in >> bits >> count) {
        if (bits.empty() || bits.back() != ':') {
            return false;
        }
        bits.pop_back();
        uint64_t value = 0;
        for (char c : bits) {
            if (c != '0' && c != '1') {
                return false;
            }
            value = (value << 1) | static_cast<uint64_t>(c == '1');
        }
        (*histogram)[value] += count;
    }
    return in.eof() && !histogram->empty();
}

PairScore
ScorePairs(const Device& device,
           const xtalk::CrosstalkCharacterization& measured)
{
    const auto one_hop_list = device.topology().EdgePairsAtDistance(1);
    std::set<std::pair<xtalk::EdgeId, xtalk::EdgeId>> one_hop;
    for (const auto& [a, b] : one_hop_list) {
        one_hop.insert(std::minmax(a, b));
    }
    const auto truth_list = device.ground_truth().HighCrosstalkPairs(3.0);
    const std::set<std::pair<xtalk::EdgeId, xtalk::EdgeId>> truth(
        truth_list.begin(), truth_list.end());
    PairScore score;
    const auto flagged = measured.HighCrosstalkPairs(3.0);
    const std::set<xtalk::GatePair> flagged_set(flagged.begin(),
                                                flagged.end());
    for (const auto& pair : truth) {
        if (one_hop.count(pair) > 0) {
            ++score.truth;
            score.truth_found += static_cast<int>(flagged_set.count(pair));
        }
    }
    score.flagged = static_cast<int>(flagged_set.size());
    for (const auto& pair : flagged_set) {
        score.flagged_true += static_cast<int>(truth.count(pair));
    }
    return score;
}

}  // namespace svcbench
