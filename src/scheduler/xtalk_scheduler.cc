#include "scheduler/xtalk_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include <z3++.h>

#include "circuit/dag.h"
#include "common/error.h"
#include "common/logging.h"
#include "faults/faults.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace xtalk {

namespace {

double
MsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Convert a Z3 numeral (possibly rational) to double. */
double
NumeralToDouble(const z3::expr& e)
{
    std::string s = e.get_decimal_string(12);
    if (!s.empty() && s.back() == '?') {
        s.pop_back();
    }
    return std::stod(s);
}

/** The solver's time resolution: 100 ticks per ns (0.01 ns). */
constexpr int64_t kTicksPerNs = 100;

/** Exact real constant for a duration/time in ns (0.01 ns resolution). */
z3::expr
RealOf(z3::context& ctx, double value)
{
    const int64_t ticks = std::llround(value * kTicksPerNs);
    return ctx.real_val(ticks, kTicksPerNs);
}

/**
 * Duration of @p gate quantized to the solver's resolution, so emitted
 * schedules and barrier decisions match the constraint system exactly.
 */
double
SolverDuration(const Device& device, const Gate& gate)
{
    return std::llround(device.GateDuration(gate) * kTicksPerNs) /
           static_cast<double>(kTicksPerNs);
}

double
LogOf(double eps)
{
    return std::log(std::clamp(eps, 1e-9, 1.0 - 1e-9));
}

using GatePairKey = std::pair<GateId, GateId>;

/** Per-circuit facts shared by every solve round and ω candidate. */
struct CircuitFacts {
    int n = 0;
    std::vector<double> duration;
    std::vector<EdgeId> edge_of;
    std::vector<GateId> measures;
    /** DAG-concurrent high-crosstalk 2q pairs (i < j). */
    std::vector<GatePairKey> eligible;
    /** Gates appearing in at least one eligible pair. */
    std::set<GateId> eligible_gates;
};

/**
 * One SMT solver session: the Z3 context plus the encoding of one
 * circuit.
 *
 * The round-invariant part of the problem — start-time variables,
 * dependency and readout constraints, one logeps per eligible gate with
 * its independent-error lower bound, and both objective sums — is
 * asserted at construction. Constraints 7-8 come in one of two
 * encodings over the same overlap indicators:
 *
 *  - lower bound (default, AssertPending): per pair, o_ij implies each
 *    gate's logeps is at least its conditional error. Lazy refinement
 *    only ever ADDS pairs, so rounds re-check() the same session. ω
 *    candidates swap objectives under push/pop scopes; pair constraints
 *    learned inside a scope are re-asserted permanently for the next
 *    candidate via the caller's `encoded` bookkeeping;
 *  - the paper's powerset (AssertPowerset): logeps equals the worst
 *    rate of each overlap subset of the gate's capped candidates. It is
 *    not monotone under refinement, so each round builds a new session.
 */
class SolverSession {
  public:
    SolverSession(const Device& device,
                  const CrosstalkCharacterization& characterization,
                  const Circuit& circuit, const DependencyDag& dag,
                  const CircuitFacts& facts)
        : device_(&device),
          characterization_(&characterization),
          facts_(&facts),
          opt_(ctx_)
    {
        const int n = facts.n;
        tau_.reserve(n);
        for (GateId g = 0; g < n; ++g) {
            tau_.push_back(
                ctx_.real_const(("tau" + std::to_string(g)).c_str()));
            Add(tau_[g] >= 0);
        }
        for (GateId g = 0; g < n; ++g) {
            for (GateId p : dag.Predecessors(g)) {
                Add(tau_[g] >= tau_[p] + RealOf(ctx_, facts.duration[p]));
            }
        }
        if (device.traits().simultaneous_readout &&
            facts.measures.size() > 1) {
            for (size_t k = 1; k < facts.measures.size(); ++k) {
                Add(tau_[facts.measures[k]] == tau_[facts.measures[0]]);
            }
        }

        // One logeps per eligible gate, declared up front so the
        // objective never changes shape: a gate whose pairs are never
        // encoded sits at its independent lower bound, a constant
        // offset that leaves the argmin untouched.
        z3::expr gate_error_sum = ctx_.real_val(0);
        for (GateId g : facts.eligible_gates) {
            z3::expr logeps =
                ctx_.real_const(("logeps" + std::to_string(g)).c_str());
            Add(logeps >= RealOf(ctx_, LogOf(Independent(g))));
            gate_error_sum = gate_error_sum + logeps;
            logeps_.emplace(g, logeps);
        }
        z3::expr decoherence_sum = ctx_.real_val(0);
        for (QubitId q = 0; q < circuit.num_qubits(); ++q) {
            GateId first = -1, last = -1;
            for (GateId g = 0; g < n; ++g) {
                if (circuit.gate(g).IsBarrier()) {
                    continue;
                }
                for (QubitId gq : circuit.gate(g).qubits) {
                    if (gq == q) {
                        if (first < 0) {
                            first = g;
                        }
                        last = g;
                    }
                }
            }
            if (first < 0) {
                continue;
            }
            const z3::expr lifetime =
                tau_[last] + RealOf(ctx_, facts.duration[last]) -
                tau_[first];
            decoherence_sum = decoherence_sum +
                              lifetime /
                                  RealOf(ctx_, device.CoherenceTimeNs(q));
        }
        gate_error_sum_ = std::make_unique<z3::expr>(gate_error_sum);
        decoherence_sum_ = std::make_unique<z3::expr>(decoherence_sum);
    }

    /** Assert every pair in @p encoded not yet in the solver. */
    void
    AssertPending(const std::set<GatePairKey>& encoded)
    {
        for (const GatePairKey& pair : encoded) {
            if (permanent_.count(pair) || scoped_.count(pair)) {
                continue;
            }
            const z3::expr o = Overlap(pair);
            const auto [i, j] = pair;
            Add(z3::implies(o, logeps_.at(i) >=
                                   RealOf(ctx_, LogOf(Conditional(i, j)))));
            Add(z3::implies(o, logeps_.at(j) >=
                                   RealOf(ctx_, LogOf(Conditional(j, i)))));
            (scope_depth_ > 0 ? scoped_ : permanent_).insert(pair);
        }
    }

    /**
     * The paper's encoding of constraints 7-8 for @p pairs: for every
     * overlap subset of each gate's candidates (the worst
     * @p max_overlap_candidates by conditional error), logeps equals
     * the worst rate in it — exact, but exponential in the cap.
     */
    void
    AssertPowerset(const std::vector<GatePairKey>& pairs,
                   int max_overlap_candidates)
    {
        std::map<GatePairKey, z3::expr> overlap;
        std::map<GateId, std::vector<GateId>> can_olp;
        for (const GatePairKey& pair : pairs) {
            overlap.emplace(pair, Overlap(pair));
            can_olp[pair.first].push_back(pair.second);
            can_olp[pair.second].push_back(pair.first);
        }
        for (auto& [i, cands] : can_olp) {
            if (static_cast<int>(cands.size()) > max_overlap_candidates) {
                std::sort(cands.begin(), cands.end(),
                          [&, i = i](GateId a, GateId b) {
                              return Conditional(i, a) > Conditional(i, b);
                          });
                cands.resize(max_overlap_candidates);
                std::sort(cands.begin(), cands.end());
            }
            const size_t subsets = size_t{1} << cands.size();
            for (size_t mask = 0; mask < subsets; ++mask) {
                z3::expr cond = ctx_.bool_val(true);
                double worst = Independent(i);
                for (size_t b = 0; b < cands.size(); ++b) {
                    const GateId j = cands[b];
                    const z3::expr& o = overlap.at(std::minmax(i, j));
                    if (mask & (size_t{1} << b)) {
                        cond = cond && o;
                        worst = std::max(worst, Conditional(i, j));
                    } else {
                        cond = cond && !o;
                    }
                }
                Add(z3::implies(cond, logeps_.at(i) ==
                                          RealOf(ctx_, LogOf(worst))));
            }
        }
    }

    /** Open a push scope and minimize the ω-weighted objective in it. */
    void
    PushObjective(double omega, double decoherence_weight)
    {
        opt_.push();
        ++scope_depth_;
        Minimize(omega, decoherence_weight);
    }

    /** Minimize without a scope (single-ω solves). */
    void
    Minimize(double omega, double decoherence_weight)
    {
        opt_.minimize(RealOf(ctx_, omega) * *gate_error_sum_ +
                      RealOf(ctx_, decoherence_weight) *
                          *decoherence_sum_);
    }

    /** Close the scope: drops its objective and its pair constraints. */
    void
    Pop()
    {
        opt_.pop();
        --scope_depth_;
        scoped_.clear();
    }

    void
    SetTimeout(unsigned timeout_ms)
    {
        z3::params params(ctx_);
        params.set("timeout", timeout_ms);
        opt_.set(params);
    }

    /** check(); on sat fills @p starts from the model. */
    z3::check_result
    Check(std::vector<double>* starts)
    {
        const z3::check_result result = opt_.check();
        if (result == z3::sat) {
            z3::model model = opt_.get_model();
            for (GateId g = 0; g < facts_->n; ++g) {
                (*starts)[g] = NumeralToDouble(model.eval(tau_[g], true));
            }
        }
        return result;
    }

    long long num_constraints() const { return num_constraints_; }
    /** Constraints added since the last call (for the round journal). */
    long long
    TakeNewConstraints()
    {
        const long long added = num_constraints_ - reported_;
        reported_ = num_constraints_;
        return added;
    }

  private:
    void
    Add(const z3::expr& constraint)
    {
        opt_.add(constraint);
        ++num_constraints_;
    }

    /**
     * Define the overlap indicator o_ij of @p pair (constraint 2; strict
     * interval overlap, so abutting gates count as serialized, matching
     * the simulator) and, on devices that need it, forbid partial
     * overlap (constraints 11-13). Returns o_ij.
     */
    z3::expr
    Overlap(const GatePairKey& pair)
    {
        const auto [i, j] = pair;
        const z3::expr di = RealOf(ctx_, facts_->duration[i]);
        const z3::expr dj = RealOf(ctx_, facts_->duration[j]);
        z3::expr o = ctx_.bool_const(
            ("o_" + std::to_string(i) + "_" + std::to_string(j)).c_str());
        Add(o == ((tau_[j] < tau_[i] + di) && (tau_[i] < tau_[j] + dj)));
        if (device_->traits().no_partial_overlap) {
            Add((tau_[i] + di <= tau_[j]) || (tau_[j] + dj <= tau_[i]) ||
                ((tau_[i] >= tau_[j]) && (tau_[i] + di <= tau_[j] + dj)) ||
                ((tau_[j] >= tau_[i]) && (tau_[j] + dj <= tau_[i] + di)));
        }
        return o;
    }

    /** Independent error of two-qubit gate @p g. */
    double
    Independent(GateId g) const
    {
        const EdgeId e = facts_->edge_of[g];
        if (characterization_->HasIndependentError(e)) {
            return characterization_->IndependentError(e);
        }
        return device_->CxError(e);
    }

    /** Conditional error of gate @p victim beside @p aggressor. */
    double
    Conditional(GateId victim, GateId aggressor) const
    {
        return characterization_->ConditionalError(
            facts_->edge_of[victim], facts_->edge_of[aggressor]);
    }

    const Device* device_;
    const CrosstalkCharacterization* characterization_;
    const CircuitFacts* facts_;
    z3::context ctx_;
    z3::optimize opt_;
    std::vector<z3::expr> tau_;
    std::map<GateId, z3::expr> logeps_;
    std::unique_ptr<z3::expr> gate_error_sum_;
    std::unique_ptr<z3::expr> decoherence_sum_;
    std::set<GatePairKey> permanent_;
    std::set<GatePairKey> scoped_;
    int scope_depth_ = 0;
    long long num_constraints_ = 0;
    long long reported_ = 0;
};

}  // namespace

XtalkScheduler::XtalkScheduler(
    const Device& device, const CrosstalkCharacterization& characterization,
    XtalkSchedulerOptions options)
    : Scheduler(device),
      characterization_(&characterization),
      options_(options)
{
    XTALK_REQUIRE(options_.omega >= 0.0 && options_.omega <= 1.0,
                  "omega " << options_.omega << " outside [0, 1]");
    XTALK_REQUIRE(options_.high_threshold >= 1.0,
                  "high_threshold must be >= 1");
}

ScheduledCircuit
XtalkScheduler::Schedule(const Circuit& circuit)
{
    return Schedule(circuit, nullptr);
}

ScheduledCircuit
XtalkScheduler::Schedule(const Circuit& circuit,
                         const runtime::CancelToken* cancel)
{
    std::vector<OmegaSolveResult> results =
        ScheduleForOmegas(circuit, {options_.omega}, cancel);
    XTALK_REQUIRE(!results.empty(), "single-omega solve returned nothing");
    return std::move(results.front().schedule);
}

std::vector<OmegaSolveResult>
XtalkScheduler::ScheduleForOmegas(const Circuit& circuit,
                                  const std::vector<double>& omegas,
                                  const runtime::CancelToken* cancel)
{
    XTALK_REQUIRE(!omegas.empty(), "need at least one omega candidate");
    telemetry::ScopedSpan total_span("sched.xtalk.schedule");
    const auto t_begin = std::chrono::steady_clock::now();
    const DependencyDag dag(circuit);

    CircuitFacts facts;
    facts.n = circuit.size();
    const int n = facts.n;
    facts.duration.assign(n, 0.0);
    facts.edge_of.assign(n, -1);
    for (GateId g = 0; g < n; ++g) {
        const Gate& gate = circuit.gate(g);
        facts.duration[g] =
            gate.IsBarrier() ? 0.0 : SolverDuration(*device_, gate);
        if (gate.IsTwoQubitUnitary()) {
            facts.edge_of[g] =
                device_->topology().FindEdge(gate.qubits[0], gate.qubits[1]);
            XTALK_REQUIRE(facts.edge_of[g] >= 0,
                          "two-qubit gate on uncoupled qubits: "
                              << xtalk::ToString(gate));
        }
        if (gate.IsMeasure()) {
            facts.measures.push_back(g);
        }
    }

    // Eligible pairs: DAG-concurrent 2q gates on distinct couplers whose
    // measured conditional error satisfies the high-crosstalk criterion
    // in either direction — the paper's pruning of CanOlp to
    // high-crosstalk partners.
    const std::vector<int> layers = dag.AsapLayers();
    for (GateId i = 0; i < n; ++i) {
        if (facts.edge_of[i] < 0) {
            continue;
        }
        for (GateId j = i + 1; j < n; ++j) {
            if (facts.edge_of[j] < 0 ||
                facts.edge_of[j] == facts.edge_of[i] ||
                !dag.CanOverlap(i, j)) {
                continue;
            }
            const HighCrosstalkCriteria criteria{options_.high_threshold,
                                                 options_.high_margin};
            if (characterization_->IsHighCrosstalk(
                    facts.edge_of[i], facts.edge_of[j], criteria) ||
                characterization_->IsHighCrosstalk(
                    facts.edge_of[j], facts.edge_of[i], criteria)) {
                facts.eligible.push_back({i, j});
                facts.eligible_gates.insert(i);
                facts.eligible_gates.insert(j);
            }
        }
    }

    // Encode only pairs whose ASAP layers are close (deep circuits have
    // quadratically many eligible pairs, nearly all of which could never
    // overlap in a sensible schedule), then lazily refine: if the solved
    // schedule overlaps an un-encoded eligible pair, add it and
    // re-solve. The encoded set is shared across ω candidates — pairs
    // one candidate learned stay encoded for the rest of the sweep.
    std::set<GatePairKey> encoded;
    for (const auto& [i, j] : facts.eligible) {
        if (options_.max_layer_distance <= 0 ||
            std::abs(layers[i] - layers[j]) <= options_.max_layer_distance) {
            encoded.insert({i, j});
        }
    }

    stats_ = {};
    // The lower-bound encoding keeps one warm session for the whole
    // sweep; the powerset encoding builds a fresh one every round.
    const bool warm = !options_.use_powerset_encoding;
    std::unique_ptr<SolverSession> session;
    const auto build_session = [&] {
        session = std::make_unique<SolverSession>(
            *device_, *characterization_, circuit, dag, facts);
        ++stats_.solver_builds;
    };
    if (warm) {
        build_session();
    }
    const bool multi = omegas.size() > 1;
    const auto budget_state = [&](bool have_model, bool have_results) {
        // 0 = keep solving, 1 = use the model in hand, 2 = abort the
        // sweep with prior results, throws when nothing usable exists.
        if (options_.total_budget_ms > 0 &&
            MsSince(t_begin) >=
                static_cast<double>(options_.total_budget_ms)) {
            if (have_model) {
                return 1;
            }
            if (have_results) {
                return 2;
            }
            throw SolverFailure(
                "XtalkSched: total budget of " +
                std::to_string(options_.total_budget_ms) +
                " ms expired before any model was found");
        }
        if (cancel && cancel->Cancelled()) {
            if (have_model) {
                return 1;
            }
            if (have_results) {
                return 2;
            }
            throw SolverFailure(
                "XtalkSched: cancelled before any model was found");
        }
        return 0;
    };

    std::vector<OmegaSolveResult> results;
    bool sweep_aborted = false;
    for (size_t oi = 0; oi < omegas.size() && !sweep_aborted; ++oi) {
        const double omega = omegas[oi];
        XTALK_REQUIRE(omega >= 0.0 && omega <= 1.0,
                      "omega " << omega << " outside [0, 1]");
        // Objective (eq. 17, decoherence sign corrected). A tiny floor
        // on the decoherence coefficient keeps omega = 1 schedules
        // compact: with a weight of exactly zero the solver may leave
        // arbitrary gaps, which no real backend would execute.
        const double decoherence_weight = std::max(1.0 - omega, 1e-4);

        bool scope_pushed = false;
        if (warm) {
            if (multi) {
                // Promote pairs learned by earlier candidates to
                // permanent assertions before opening this ω's scope.
                session->AssertPending(encoded);
                session->PushObjective(omega, decoherence_weight);
                scope_pushed = true;
            } else {
                session->Minimize(omega, decoherence_weight);
            }
        }

        std::vector<double> starts(n, 0.0);
        std::vector<GatePairKey> model_pairs;
        bool have_model = false;
        for (int round = 0;; ++round) {
            // Overall wall-clock budget across refinement rounds and ω
            // candidates. Out of budget with a model in hand: stop
            // refining and ship it. Out of budget with nothing: abort
            // (partial sweep) or SolverFailure, so the portfolio can
            // fall back to a non-SMT member.
            const int state = budget_state(have_model, !results.empty());
            if (state == 1) {
                Warn("XtalkSched: budget/cancellation after round " +
                     std::to_string(round) + "; using best known model");
                break;
            }
            if (state == 2) {
                Warn("XtalkSched: budget/cancellation mid-sweep; "
                     "returning the " +
                     std::to_string(results.size()) +
                     " omega candidates already solved");
                sweep_aborted = true;
                break;
            }
            unsigned effective_timeout_ms = options_.timeout_ms;
            if (options_.total_budget_ms > 0) {
                const double remaining_ms =
                    options_.total_budget_ms - MsSince(t_begin);
                effective_timeout_ms = std::min<unsigned>(
                    effective_timeout_ms,
                    static_cast<unsigned>(std::max(1.0, remaining_ms)));
            }

            std::vector<GatePairKey> round_pairs(encoded.begin(),
                                                 encoded.end());
            stats_.candidate_pairs = static_cast<int>(round_pairs.size());
            stats_.refinement_rounds = round;
            long long round_constraints = 0;
            int gates_with_candidates = 0;

            // Solve. Z3's exception type must not escape this
            // translation unit, and a modelless outcome must not abort
            // a caller that can degrade — both translate to
            // SolverFailure (or, when an earlier round already produced
            // a model, to using that model).
            faults::MaybeInject("smt.solve");
            z3::check_result result = z3::unknown;
            try {
                {
                    // Span per solver round: the smt-solve node of the
                    // profiler cost tree, and span.sched.xtalk.solve.ms
                    // on the metrics side (the whole-schedule aggregate
                    // stays in sched.xtalk.solve_ms).
                    telemetry::ScopedSpan solve_span("sched.xtalk.solve");
                    if (warm) {
                        session->AssertPending(encoded);
                    } else {
                        build_session();
                        session->AssertPowerset(
                            round_pairs, options_.max_overlap_candidates);
                        session->Minimize(omega, decoherence_weight);
                    }
                    session->SetTimeout(effective_timeout_ms);
                    result = session->Check(&starts);
                    round_constraints = session->TakeNewConstraints();
                    for (GateId g : facts.eligible_gates) {
                        for (const auto& [i, j] : round_pairs) {
                            if (i == g || j == g) {
                                ++gates_with_candidates;
                                break;
                            }
                        }
                    }
                }
                stats_.gates_with_candidates = gates_with_candidates;
                if (telemetry::Enabled()) {
                    telemetry::GetCounter("sched.xtalk.solves").Add(1);
                    telemetry::GetCounter("sched.xtalk.constraints")
                        .Add(static_cast<uint64_t>(
                            std::max<long long>(0, round_constraints)));
                    telemetry::GetCounter("sched.xtalk.candidate_pairs")
                        .Add(static_cast<uint64_t>(round_pairs.size()));
                    if (result != z3::sat) {
                        telemetry::GetCounter("sched.xtalk.solver_timeouts")
                            .Add(1);
                    }
                }
                telemetry::JournalEmit(
                    "sched.solve",
                    {{"round", round},
                     {"omega", omega},
                     {"verdict", result == z3::sat
                                     ? "sat"
                                     : (result == z3::unsat ? "unsat"
                                                            : "unknown")},
                     {"constraints", round_constraints},
                     {"pairs", static_cast<uint64_t>(round_pairs.size())},
                     {"warm", warm},
                     {"have_model", have_model}});
                XTALK_REQUIRE(result != z3::unsat,
                              "scheduling constraints are unsatisfiable "
                              "(bug)");
                stats_.optimal = (result == z3::sat);
                if (result != z3::sat) {
                    // `unknown` means the search was cut off: any
                    // candidate model z3 holds is NOT guaranteed to
                    // satisfy even the hard constraints, so it must
                    // never become a schedule. Fall back to the last
                    // sat round's model, or report SolverFailure so the
                    // caller can degrade.
                    if (have_model) {
                        Warn("XtalkSched: solver returned unknown "
                             "(timeout?); using the last satisfiable "
                             "model");
                        break;
                    }
                    if (!results.empty()) {
                        Warn("XtalkSched: solver returned unknown "
                             "mid-sweep; returning the solved "
                             "candidates");
                        sweep_aborted = true;
                        break;
                    }
                    throw SolverFailure(
                        "XtalkSched: solver returned unknown (timeout?) "
                        "before any satisfiable model was found");
                }
            } catch (const z3::exception& e) {
                telemetry::JournalEmit("sched.solve",
                                       {{"round", round},
                                        {"verdict", "exception"},
                                        {"error", std::string(e.msg())},
                                        {"have_model", have_model}});
                if (have_model) {
                    Warn(std::string("XtalkSched: solver failed in "
                                     "refinement round (") +
                         e.msg() + "); using best known model");
                    break;
                }
                throw SolverFailure(
                    std::string("XtalkSched: solver produced no model: ") +
                    e.msg());
            }
            have_model = true;
            model_pairs = std::move(round_pairs);

            // Lazy refinement: add any eligible-but-unencoded pair the
            // model overlaps, then re-solve. Converges quickly because
            // violations only occur when the solver shifted chains
            // across the layer window.
            std::vector<GatePairKey> violations;
            for (const auto& [i, j] : facts.eligible) {
                if (encoded.count({i, j})) {
                    continue;
                }
                const bool overlaps =
                    starts[j] < starts[i] + facts.duration[i] - 1e-9 &&
                    starts[i] < starts[j] + facts.duration[j] - 1e-9;
                if (overlaps) {
                    violations.push_back({i, j});
                }
            }
            if (violations.empty() ||
                round >= options_.max_refinement_rounds) {
                if (!violations.empty()) {
                    Warn("XtalkSched: refinement budget exhausted with " +
                         std::to_string(violations.size()) +
                         " unencoded overlaps remaining");
                }
                break;
            }
            if (round + 1 >= options_.max_refinement_rounds) {
                // Escalate: pair-at-a-time refinement is thrashing (the
                // solver keeps finding fresh blind spots); encode the
                // whole eligible set for the final round.
                encoded.insert(facts.eligible.begin(),
                               facts.eligible.end());
            } else {
                encoded.insert(violations.begin(), violations.end());
            }
        }
        if (scope_pushed) {
            session->Pop();
        }
        if (!have_model) {
            break;  // sweep_aborted with prior results
        }

        // Only lifetime *differences* enter the objective, so the
        // solver may return an arbitrary global offset; shift the
        // earliest gate to 0.
        if (n > 0) {
            const double origin =
                *std::min_element(starts.begin(), starts.end());
            for (double& s : starts) {
                s = std::max(0.0, s - origin);
            }
        }
        OmegaSolveResult solved;
        solved.omega = omega;
        solved.schedule = ScheduledCircuit(circuit.num_qubits());
        for (GateId g = 0; g < n; ++g) {
            if (!circuit.gate(g).IsBarrier()) {
                solved.schedule.Add(circuit.gate(g), starts[g],
                                    facts.duration[g]);
            }
        }
        solved.start_ns = starts;
        solved.candidate_pairs = model_pairs;
        results.push_back(std::move(solved));
        ++stats_.omegas_solved;
    }

    XTALK_REQUIRE(!results.empty(),
                  "omega sweep ended with no solved candidate (bug)");
    last_start_times_ = results.back().start_ns;
    last_pairs_ = results.back().candidate_pairs;

    stats_.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    if (telemetry::Enabled()) {
        telemetry::GetCounter("sched.xtalk.schedules").Add(1);
        telemetry::GetCounter("sched.xtalk.refinement_rounds")
            .Add(static_cast<uint64_t>(stats_.refinement_rounds));
        // Explicit bounds: SMT solves cluster in the 1ms-2min range, so
        // the sub-millisecond default buckets would pile everything
        // into a few cells and ruin the quantile estimates.
        telemetry::GetHistogram("sched.xtalk.solve_ms",
                                {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                                 200.0, 500.0, 1e3, 2e3, 5e3, 10e3, 20e3,
                                 60e3, 120e3})
            .Record(stats_.solve_seconds * 1e3);
    }
    return results;
}

Circuit
XtalkScheduler::ScheduleWithBarriers(const Circuit& circuit,
                                     ScheduledCircuit* schedule_out)
{
    const ScheduledCircuit schedule = Schedule(circuit);
    if (schedule_out) {
        *schedule_out = schedule;
    }
    return InsertOrderingBarriersForCircuit(circuit, last_start_times_,
                                            last_pairs_, *device_);
}

Circuit
InsertOrderingBarriersForCircuit(
    const Circuit& circuit, const std::vector<double>& start_ns,
    const std::vector<std::pair<GateId, GateId>>& candidate_pairs,
    const Device& device)
{
    const int n = circuit.size();
    XTALK_REQUIRE(static_cast<int>(start_ns.size()) == n,
                  "start times size mismatch");
    // Output order: by solver start time, stable on original index.
    std::vector<GateId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](GateId a, GateId b) {
        return start_ns[a] < start_ns[b];
    });
    std::vector<int> position_of(n);
    for (int pos = 0; pos < n; ++pos) {
        position_of[order[pos]] = pos;
    }

    // For every candidate pair the solver serialized, request a barrier
    // right before the later gate, covering both gates' qubits.
    std::map<int, std::set<QubitId>> barrier_before;
    for (const auto& [i, j] : candidate_pairs) {
        const double di = SolverDuration(device, circuit.gate(i));
        const double dj = SolverDuration(device, circuit.gate(j));
        const bool overlapping = start_ns[j] < start_ns[i] + di - 1e-9 &&
                                 start_ns[i] < start_ns[j] + dj - 1e-9;
        if (overlapping) {
            continue;  // Solver chose to run them concurrently.
        }
        const GateId later = start_ns[i] <= start_ns[j] ? j : i;
        auto& qubits = barrier_before[position_of[later]];
        qubits.insert(circuit.gate(i).qubits.begin(),
                      circuit.gate(i).qubits.end());
        qubits.insert(circuit.gate(j).qubits.begin(),
                      circuit.gate(j).qubits.end());
    }

    Circuit out(circuit.num_qubits());
    for (int pos = 0; pos < n; ++pos) {
        const auto it = barrier_before.find(pos);
        if (it != barrier_before.end()) {
            out.Barrier(std::vector<QubitId>(it->second.begin(),
                                             it->second.end()));
        }
        const Gate& g = circuit.gate(order[pos]);
        if (!g.IsBarrier()) {
            out.Add(g);
        }
    }
    return out;
}

}  // namespace xtalk
