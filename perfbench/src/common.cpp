#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "shtrace/analysis/transient.hpp"
#include "shtrace/cells/register_fixture.hpp"
#include "shtrace/circuit/assembler.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Mirrored in BENCHMARK.json (README.md maps each to its layer/workload).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"chz.problem_s", "s"},
    {"chz.seed_s", "s"},
    {"chz.seed_evals", "count"},
    {"chz.trace_s", "s"},
    {"chz.tracer_self_s", "s"},
    {"chz.tracer_useful_ratio", "ratio"},
    {"chz.mpnr_iters_per_point", "count"},
    {"chz.h_eval_ms_p50", "ms"},
    {"chz.h_eval_ms_p99", "ms"},
    {"chz.h_value_ms_p50", "ms"},
    {"chz.h_value_ms_p99", "ms"},
    {"chz.h_calls", "count"},
    {"chz.stage_sum_frac", "ratio"},
    {"analysis.steps_per_eval", "count"},
    {"analysis.newton_per_step", "count"},
    {"analysis.chord_frac", "ratio"},
    {"analysis.rejected_steps", "count"},
    {"analysis.sensitivity_premium", "ratio"},
    {"circuit.assemble_us", "us"},
    {"circuit.residual_us", "us"},
    {"circuit.passes_per_step", "count"},
    {"linalg.factor_us", "us"},
    {"linalg.solve_us", "us"},
    {"linalg.factors_per_step", "count"},
    {"linalg.solves_per_step", "count"},
    {"linalg.refactor_frac", "ratio"},
    {"attributed_frac", "ratio"},
    {"measure.extract_s", "s"},
    {"contour_err_ps", "ps"},
    {"store.read_ms", "ms"},
    {"store.publish_ms", "ms"},
    {"store.entry_bytes", "bytes"},
    {"serve.parse_ms", "ms"},
    {"serve.render_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.http_ms", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.compute_ms_p99", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.warm_p99_ms", "ms"},
    {"serve.coalesced", "count"},
    {"serve.rejected", "count"},
    {"trace_overhead_frac", "ratio"},
};

const std::vector<MetricSpec>& table(bool trace) {
    return trace ? kPerLayer : kEndToEnd;
}

/// Median per-call wall time (us) of `op`, over batches of calls sized so
/// one batch takes about a millisecond.
double perCallMicros(const std::function<void()>& op) {
    int batch = 1;
    for (;;) {
        const auto start = Clock::now();
        for (int i = 0; i < batch; ++i) {
            op();
        }
        if (secondsSince(start) >= 1e-3 || batch >= (1 << 20)) {
            break;
        }
        batch *= 2;
    }
    std::vector<double> perCall;
    for (int rep = 0; rep < 15; ++rep) {
        const auto start = Clock::now();
        for (int i = 0; i < batch; ++i) {
            op();
        }
        perCall.push_back(1e6 * secondsSince(start) / batch);
    }
    return median(perCall);
}

}  // namespace

Report::Report(bool trace) : trace_(trace) {
    if (trace_) {
        for (const MetricSpec& spec : kPerLayer) {
            values_[spec.name] = 0.0;
        }
    }
}

void Report::set(const std::string& name, double value) {
    const auto& specs = table(trace_);
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) {
                                       return name == s.name;
                                   });
    if (!known) {
        throw std::logic_error("perfbench: metric " + name +
                               " is not in the active table");
    }
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    values_[name] = value;
}

void Report::fail(const std::string& what) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Report::run(const std::string& what, const std::function<void()>& op) {
    attempt();
    try {
        op();
    } catch (const std::exception& e) {
        fail(what + ": " + e.what());
    }
}

std::string Report::json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    const auto& specs = table(trace_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = values_.find(specs[i].name);
        if (it == values_.end()) {
            throw std::logic_error(std::string("perfbench: metric ") +
                                   specs[i].name + " was never measured");
        }
        out << (i == 0 ? "" : ", ") << "\"" << specs[i].name
            << "\": {\"value\": " << it->second << ", \"unit\": \""
            << specs[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (double v : values) {
        total += v;
    }
    return total;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double peakRssMb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
    }
    throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

void SetupTimer::run(int times) {
    for (int i = 0; i < times; ++i) {
        const auto start = Clock::now();
        setup_();
        seconds_.push_back(secondsSince(start));
    }
}

double runFor(double seconds, int minReps, const std::function<void()>& op) {
    const auto start = Clock::now();
    for (int done = 0; done < minReps || secondsSince(start) < seconds;
         ++done) {
        op();
    }
    return secondsSince(start);
}

shtrace::HEvaluation TimedHFunction::evaluate(double setupSkew,
                                              double holdSkew,
                                              shtrace::SimStats* stats) const {
    const auto start = Clock::now();
    const shtrace::HEvaluation out =
        HFunction::evaluate(setupSkew, holdSkew, stats);
    evalMillis_.push_back(millisSince(start));
    return out;
}

shtrace::HEvaluation TimedHFunction::evaluateValueOnly(
    double setupSkew, double holdSkew, shtrace::SimStats* stats) const {
    shtrace::SimStats own;
    const auto start = Clock::now();
    const shtrace::HEvaluation out =
        HFunction::evaluateValueOnly(setupSkew, holdSkew, &own);
    valueMillis_.push_back(millisSince(start));
    valuePasses_.push_back(static_cast<double>(own.deviceEvaluations +
                                               own.residualOnlyAssemblies));
    if (stats != nullptr) {
        stats->merge(own);
    }
    return out;
}

UnitCosts probeUnitCosts(const shtrace::Circuit& circuit,
                         const shtrace::Vector& x, double t, double dt,
                         shtrace::LinalgBackend requested) {
    using namespace shtrace;
    const std::size_t n = circuit.systemSize();
    const LinalgBackend backend = resolveLinalgBackend(requested, n);
    Assembler asmb(n, backend == LinalgBackend::Sparse
                          ? circuit.sparsityPattern()
                          : nullptr);
    UnitCosts costs;
    costs.residualUs =
        perCallMicros([&] { circuit.assembleResidual(x, t, asmb); });
    costs.assembleUs = perCallMicros([&] { circuit.assemble(x, t, asmb); });

    SystemMatrix jacobian = asmb.cSystem();
    jacobian *= 2.0 / dt;
    jacobian += asmb.gSystem();
    const std::unique_ptr<LinearSolver> solver = makeLinearSolver(backend);
    if (!solver->factor(jacobian)) {
        throw std::runtime_error("perfbench: probe Jacobian is singular");
    }
    costs.factorUs = perCallMicros([&] { solver->factor(jacobian); });
    const Vector rhs(n, 1e-3);
    Vector b(n);
    costs.solveUs = perCallMicros([&] {
        b = rhs;
        solver->solveInPlace(b);
    });
    return costs;
}

UnitCosts probeAt(const shtrace::CharacterizationProblem& problem,
                  const shtrace::SimulationRecipe& recipe,
                  const shtrace::SkewPoint& at) {
    using namespace shtrace;
    const RegisterFixture& fixture = problem.fixture();
    TransientOptions mid;
    mid.tStop = 0.5 * problem.tf();
    mid.fixedSteps = static_cast<int>(std::ceil(mid.tStop / recipe.dtNominal));
    mid.initialCondition = problem.initialCondition();
    mid.storeStates = false;
    fixture.data->setSkews(at.setup, at.hold);
    const TransientResult state = TransientAnalysis(fixture.circuit, mid).run();
    if (!state.success) {
        throw std::runtime_error("perfbench: probe transient failed");
    }
    return probeUnitCosts(fixture.circuit, state.finalState, mid.tStop,
                          mid.tStop / mid.fixedSteps, recipe.linalg);
}

double sensitivityPremium(const shtrace::CharacterizationProblem& problem,
                          const std::vector<shtrace::SkewPoint>& points) {
    std::vector<double> withSens, plain;
    for (std::size_t k = 0; k < 3 && !points.empty(); ++k) {
        const shtrace::SkewPoint& p = points[k * (points.size() - 1) / 2];
        for (int rep = 0; rep < 2; ++rep) {
            auto start = Clock::now();
            problem.h().evaluate(p.setup, p.hold);
            withSens.push_back(secondsSince(start));
            start = Clock::now();
            problem.h().evaluateValueOnly(p.setup, p.hold);
            plain.push_back(secondsSince(start));
        }
    }
    return ratio(median(withSens), median(plain));
}

UnitCosts meanCosts(const std::vector<UnitCosts>& costs) {
    UnitCosts mean;
    for (const UnitCosts& c : costs) {
        mean.assembleUs += c.assembleUs / costs.size();
        mean.residualUs += c.residualUs / costs.size();
        mean.factorUs += c.factorUs / costs.size();
        mean.solveUs += c.solveUs / costs.size();
    }
    return mean;
}

double modeledSeconds(const shtrace::SimStats& s, const UnitCosts& c) {
    return 1e-6 * (static_cast<double>(s.deviceEvaluations) * c.assembleUs +
                   static_cast<double>(s.residualOnlyAssemblies) *
                       c.residualUs +
                   static_cast<double>(s.luFactorizations) * c.factorUs +
                   static_cast<double>(s.luSolves) * c.solveUs);
}

void setCounterMetrics(Report& report, const shtrace::SimStats& s) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    report.set("analysis.steps_per_eval",
               ratio(d(s.timeSteps), d(s.transientSolves)));
    // newtonIterations counts full-Jacobian iterations only.
    const double iterations = d(s.newtonIterations + s.chordIterations);
    report.set("analysis.newton_per_step", ratio(iterations, d(s.timeSteps)));
    report.set("analysis.chord_frac", ratio(d(s.chordIterations), iterations));
    report.set("analysis.rejected_steps",
               ratio(d(s.rejectedSteps), d(s.transientSolves)));
    report.set("circuit.passes_per_step",
               ratio(d(s.deviceEvaluations + s.residualOnlyAssemblies),
                     d(s.timeSteps)));
    report.set("linalg.factors_per_step",
               ratio(d(s.luFactorizations), d(s.timeSteps)));
    report.set("linalg.solves_per_step",
               ratio(d(s.luSolves), d(s.timeSteps)));
    report.set("linalg.refactor_frac",
               ratio(d(s.sparseRefactorizations), d(s.luFactorizations)));
}

void setUnitCostMetrics(Report& report, const UnitCosts& costs) {
    report.set("circuit.assemble_us", costs.assembleUs);
    report.set("circuit.residual_us", costs.residualUs);
    report.set("linalg.factor_us", costs.factorUs);
    report.set("linalg.solve_us", costs.solveUs);
}

double maxDistance(const std::vector<shtrace::SkewPoint>& points,
                   const shtrace::ContourPolyline& reference) {
    double worst = 0.0;
    for (const shtrace::SkewPoint& p : points) {
        worst = std::max(worst, shtrace::distanceToPolyline(p, reference));
    }
    return worst;
}

shtrace::ContourPolyline readContourCsv(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("perfbench: cannot read " + path);
    }
    shtrace::ContourPolyline contour;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t comma = line.find(',');
        if (comma == std::string::npos) {
            throw std::runtime_error("perfbench: malformed row in " + path);
        }
        contour.push_back({std::stod(line.substr(0, comma)),
                           std::stod(line.substr(comma + 1))});
    }
    if (contour.size() < 2) {
        throw std::runtime_error("perfbench: reference " + path +
                                 " has fewer than two points");
    }
    return contour;
}

void writeContourCsv(const std::string& path, const std::string& title,
                     const std::vector<shtrace::SkewPoint>& points) {
    std::ofstream out(path);
    out.precision(17);
    out << "# " << title << "\n# setup_skew_s,hold_skew_s\n";
    for (const shtrace::SkewPoint& p : points) {
        out << p.setup << "," << p.hold << "\n";
    }
    if (!out) {
        throw std::runtime_error("perfbench: cannot write " + path);
    }
}

}  // namespace perfbench
