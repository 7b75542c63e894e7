// perfbench -- shared pieces of the benchmark driver: options, the result
// report, statistics, the outside-in h-function timer and the kernel
// unit-cost probes.
//
// Everything here measures the library from OUTSIDE: it times calls into
// public functions and reads SimStats counters, and it adds nothing inside
// the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "shtrace/chz/h_function.hpp"
#include "shtrace/chz/problem.hpp"
#include "shtrace/circuit/circuit.hpp"
#include "shtrace/linalg/linear_solver.hpp"
#include "shtrace/measure/contour.hpp"
#include "shtrace/util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double millisSince(Clock::time_point start) {
    return 1e3 * secondsSince(start);
}

/// One benchmark run's command line (run.py documents the flags).
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny problem sizes, so every workload finishes in seconds.
    bool smoke = false;
    /// The perfbench directory (reference contours live under it).
    std::string dataDir = "perfbench";
    /// A writable directory inside the checkout (serve stores).
    std::string scratchDir = ".bench_build/tmp";
};

/// The result of one run, printed as the last line of stdout. Which metric
/// names exist, and their units, is fixed by the two tables in common.cpp
/// (mirrored in BENCHMARK.json; run.py --smoke checks the two agree).
class Report {
public:
    /// A traced run reports the per-layer table, an untraced one the
    /// end-to-end table. Per-layer metrics start at 0: a layer the
    /// workload never enters did no work there.
    explicit Report(bool trace);

    /// Sets a metric; throws when `name` is not in the active table.
    void set(const std::string& name, double value);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /// Counts one failed operation and logs why to stderr.
    void fail(const std::string& what);
    /// Runs one operation: counts the attempt, and a thrown error as a
    /// failure.
    void run(const std::string& what, const std::function<void()>& op);

    /// The final JSON line. Throws when an end-to-end metric was never set.
    std::string json() const;

private:
    bool trace_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);
/// a / b, or 0 when b is 0 (a ratio over work that did not happen).
double ratio(double a, double b);

/// Peak resident set of this process (VmHWM), in MB.
double peakRssMb();

/// Times a workload's complete set-up each time it runs. The serial
/// workloads run it kSetupsBefore times before the timed loop and, in
/// untraced runs, kSetupsAfterEach more times after every operation (the
/// set-up rebuilds the same state), so setup_s is a median of many samples
/// spread over the whole run rather than one moment of it.
class SetupTimer {
public:
    explicit SetupTimer(std::function<void()> setup)
        : setup_(std::move(setup)) {}
    /// Runs the set-up `times` times, timing each.
    void run(int times = 1);
    double medianSeconds() const { return median(seconds_); }

private:
    std::function<void()> setup_;
    std::vector<double> seconds_;
};
inline constexpr int kSetupsBefore = 20;
inline constexpr int kSetupsAfterEach = 5;

/// Repeats `op` until `seconds` have passed and at least `minReps` calls
/// were made; returns the wall time spent.
double runFor(double seconds, int minReps, const std::function<void()>& op);

/// The HFunction hook the traced runs pass through characterization: it
/// times every evaluate()/evaluateValueOnly() call (the same virtual hook
/// tests/fault_injection.hpp decorates) and changes nothing else.
class TimedHFunction final : public shtrace::HFunction {
public:
    explicit TimedHFunction(const shtrace::HFunction& inner)
        : HFunction(inner) {}

    shtrace::HEvaluation evaluate(
        double setupSkew, double holdSkew,
        shtrace::SimStats* stats = nullptr) const override;
    shtrace::HEvaluation evaluateValueOnly(
        double setupSkew, double holdSkew,
        shtrace::SimStats* stats = nullptr) const override;

    /// Per-call wall times (ms) of sensitivity-tracked / value-only calls.
    const std::vector<double>& evalMillis() const { return evalMillis_; }
    const std::vector<double>& valueMillis() const { return valueMillis_; }
    /// Per value-only call: its assembly passes (full + residual-only), the
    /// work its time is spent on.
    const std::vector<double>& valuePasses() const { return valuePasses_; }
    /// Total seconds spent inside h so far.
    double seconds() const {
        return 1e-3 * (sum(evalMillis_) + sum(valueMillis_));
    }

private:
    mutable std::vector<double> evalMillis_;
    mutable std::vector<double> valueMillis_;
    mutable std::vector<double> valuePasses_;
};

/// Per-call costs of the four transient kernels, in microseconds.
struct UnitCosts {
    double assembleUs = 0.0;  ///< full assembly pass (f, q, G, C)
    double residualUs = 0.0;  ///< residual-only pass (f, q)
    double factorUs = 0.0;    ///< factor of the step Jacobian a*C + G
    double solveUs = 0.0;     ///< one back-substitution with that factor
};

/// Times the kernels on `circuit`'s own step Jacobian: assembled at state
/// `x`, time `t` through Circuit::assemble, combined as (2/dt) C + G (the
/// trapezoidal step matrix) and factored by makeLinearSolver on the
/// backend `requested` resolves to for this circuit.
UnitCosts probeUnitCosts(const shtrace::Circuit& circuit,
                         const shtrace::Vector& x, double t, double dt,
                         shtrace::LinalgBackend requested);
/// probeUnitCosts on the problem's own cell, at the state half-way through
/// its fixed-grid transient at skews `at`.
UnitCosts probeAt(const shtrace::CharacterizationProblem& problem,
                  const shtrace::SimulationRecipe& recipe,
                  const shtrace::SkewPoint& at);
/// Averages per-cell probes.
UnitCosts meanCosts(const std::vector<UnitCosts>& costs);

/// Sensitivity-tracked over value-only h time, medians over a few of
/// `points` (the first, middle and last), two calls each.
double sensitivityPremium(const shtrace::CharacterizationProblem& problem,
                          const std::vector<shtrace::SkewPoint>& points);

/// The kernel model: counted operations times unit costs, in seconds.
double modeledSeconds(const shtrace::SimStats& stats, const UnitCosts& costs);

/// The counter-derived analysis/circuit/linalg ratios of `stats`.
void setCounterMetrics(Report& report, const shtrace::SimStats& stats);
/// circuit.assemble_us, circuit.residual_us, linalg.factor_us/solve_us.
void setUnitCostMetrics(Report& report, const UnitCosts& costs);

/// Largest distance (s) from any of `points` to the reference polyline.
double maxDistance(const std::vector<shtrace::SkewPoint>& points,
                   const shtrace::ContourPolyline& reference);

/// Reads / writes a reference contour (one "setup,hold" row per point,
/// 17 significant digits so the doubles round-trip exactly).
shtrace::ContourPolyline readContourCsv(const std::string& path);
void writeContourCsv(const std::string& path, const std::string& title,
                     const std::vector<shtrace::SkewPoint>& points);

/// Contour tolerance of the correctness checks: 10 fs (ROADMAP: dense vs
/// sparse differ by 3e-24 s, checkpoint-resume by 3e-16 s).
inline constexpr double kContourToleranceSeconds = 10e-15;

// The workloads (one file each).
void runPaperContours(const Options& options, Report& report);
void runSurfaceGrid(const Options& options, Report& report);
void runServeMix(const Options& options, Report& report);
/// Regenerates the committed reference contours into `dir`.
void writePaperReferences(const std::string& dir);

}  // namespace perfbench
