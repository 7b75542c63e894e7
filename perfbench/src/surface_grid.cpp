// surface_grid -- the serial 40x40 brute-force output surface over the
// Fig. 8 window through runSurfaceMethod(h, ...), i.e. bench_speedup at
// n = 40. Same cell and transient engine as paper_contours, but only
// value-only transients: no sensitivities, no MPNR, no tracer. The seed
// shifts the grid by up to half a cell along each axis, so each seed
// samples the surface at other skews at the same cost.
//
// A grid takes seconds, and host contention lasts seconds, so even the
// fastest of the six to eight grids of a run carries it. Each grid
// therefore runs through a TimedHFunction, and op_ms is a WorkFloor: the
// grid's assembly passes at the lowest ms per pass any of its transients
// reached in the run, plus the fastest remainder of a grid (extraction,
// bookkeeping). The grid's value-only transients differ by under 7% in
// passes and cost nearly the same per pass; sensitivity-tracked ones do not
// (their back-substitutions go per step, not per pass), which is why
// paper_contours takes its fastest whole call instead.
#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <random>

#include "common.hpp"
#include "shtrace/cells/tspc.hpp"
#include "shtrace/chz/problem.hpp"
#include "shtrace/chz/surface_method.hpp"

namespace perfbench {

using namespace shtrace;

namespace {

/// A grid's cost on a quiet host: its work at the fastest speed the run
/// reached (see the top of this file).
class WorkFloor {
public:
    /// Records one grid of `gridMillis` whose value-only h calls `h` timed.
    void add(double gridMillis, const TimedHFunction& h) {
        for (std::size_t k = 0; k < h.valueMillis().size(); ++k) {
            msPerPass_ =
                std::min(msPerPass_, h.valueMillis()[k] / h.valuePasses()[k]);
        }
        passesPerGrid_ = sum(h.valuePasses());
        restMillis_ = std::min(restMillis_, gridMillis - 1e3 * h.seconds());
    }
    /// The estimate in ms; not finite when no grid was recorded.
    double millis() const { return passesPerGrid_ * msPerPass_ + restMillis_; }

private:
    double msPerPass_ = std::numeric_limits<double>::infinity();
    double passesPerGrid_ = 0.0;
    double restMillis_ = std::numeric_limits<double>::infinity();
};

}  // namespace

void runSurfaceGrid(const Options& options, Report& report) {
    const int n = options.smoke ? 6 : 40;
    std::mt19937_64 rng(options.seed);
    std::uniform_real_distribution<double> half(0.0, 0.5);
    const double cellSetup = (560e-12 - 120e-12) / (n - 1);
    const double cellHold = (460e-12 - 60e-12) / (n - 1);
    SurfaceMethodOptions grid;
    grid.setupPoints = n;
    grid.holdPoints = n;
    grid.setupMin = 120e-12 + half(rng) * cellSetup;
    grid.setupMax = grid.setupMin + (n - 1) * cellSetup;
    grid.holdMin = 60e-12 + half(rng) * cellHold;
    grid.holdMax = grid.holdMin + (n - 1) * cellHold;

    std::unique_ptr<RegisterFixture> fixture;
    std::unique_ptr<CharacterizationProblem> problem;
    std::vector<SkewPoint> reference;
    SetupTimer setup([&] {
        problem.reset();
        fixture = std::make_unique<RegisterFixture>(buildTspcRegister());
        problem = std::make_unique<CharacterizationProblem>(*fixture);
        reference.clear();
        for (const SkewPoint& p :
             readContourCsv(options.dataDir + "/reference/fig8_tspc.csv")) {
            if (p.setup >= grid.setupMin && p.setup <= grid.setupMax &&
                p.hold >= grid.holdMin && p.hold <= grid.holdMax) {
                reference.push_back(p);
            }
        }
    });
    setup.run(kSetupsBefore);

    // The grid's level set must pass within one grid cell of every traced
    // reference point (the paper's Fig. 10/12(b) overlay check).
    const auto check = [&](const SurfaceMethodResult& result) {
        if (result.transientCount != n * n) {
            report.fail("surface ran " + std::to_string(result.transientCount) +
                        " transients, expected " + std::to_string(n * n));
        }
        if (result.contours.empty()) {
            report.fail("surface has no contour at the criterion level");
            return;
        }
        const double dev = maxDeviation(reference, result.contours);
        if (!(dev < std::max(cellSetup, cellHold))) {
            report.fail("surface contour is " + std::to_string(dev * 1e12) +
                        " ps from the reference, more than a grid cell");
        }
    };

    std::vector<double> gridMillis;
    WorkFloor floor;
    std::optional<SurfaceMethodResult> last;
    const double budget = options.trace ? options.seconds / 2 : options.seconds;
    const double wall = runFor(budget, options.trace ? 1 : 3, [&] {
        report.run("surface grid", [&] {
            const TimedHFunction h(problem->h());
            const auto start = Clock::now();
            last = runSurfaceMethod(h, grid);
            gridMillis.push_back(millisSince(start));
            check(*last);
            if (h.valueMillis().size() != static_cast<std::size_t>(n * n) ||
                !h.evalMillis().empty()) {
                report.fail("surface grid did not make n^2 value-only h calls");
                return;
            }
            floor.add(gridMillis.back(), h);
        });
        if (!options.trace) {
            setup.run(kSetupsAfterEach);
        }
    });

    if (!options.trace) {
        report.set("setup_s", setup.medianSeconds());
        report.set("op_ms", floor.millis());
        report.set("peak_rss_mb", peakRssMb());
        return;
    }
    report.set("op_p50_ms", median(gridMillis));
    report.set("op_tail_ms", quantile(gridMillis, 0.9));
    report.set("ops_per_s", static_cast<double>(gridMillis.size()) / wall);

    // Traced half: the same grids, now also counting SimStats.
    std::vector<double> tracedMillis, valueMillis;
    SimStats stats;
    double hSeconds = 0.0;
    runFor(options.seconds / 2, 1, [&] {
        report.run("surface grid (traced)", [&] {
            const TimedHFunction h(problem->h());
            const auto start = Clock::now();
            const SurfaceMethodResult result =
                runSurfaceMethod(h, grid, &stats);
            tracedMillis.push_back(millisSince(start));
            check(result);
            valueMillis.insert(valueMillis.end(), h.valueMillis().begin(),
                               h.valueMillis().end());
            hSeconds += h.seconds();
        });
    });

    std::vector<double> extractS;
    for (int rep = 0; rep < 5 && last; ++rep) {
        const auto start = Clock::now();
        const auto contours = extractLevelContours(last->surface, problem->r());
        extractS.push_back(secondsSince(start));
        if (contours.size() != last->contours.size()) {
            report.fail("re-extracted level set differs");
        }
    }

    // Kernel unit costs at a reference skew.
    const SkewPoint at = reference.empty() ? SkewPoint{300e-12, 300e-12}
                                           : reference.front();
    const UnitCosts costs = probeAt(*problem, SimulationRecipe{}, at);

    const double grids = static_cast<double>(tracedMillis.size());
    report.set("chz.h_value_ms_p50", quantile(valueMillis, 0.5));
    report.set("chz.h_value_ms_p99", quantile(valueMillis, 0.99));
    report.set("chz.h_calls",
               ratio(static_cast<double>(valueMillis.size()), grids));
    setCounterMetrics(report, stats);
    report.set("analysis.sensitivity_premium",
               sensitivityPremium(*problem, reference));
    setUnitCostMetrics(report, costs);
    report.set("attributed_frac",
               ratio(modeledSeconds(stats, costs), hSeconds));
    report.set("measure.extract_s", median(extractS));
    report.set("trace_overhead_frac",
               ratio(median(tracedMillis), median(gridMillis)) - 1.0);
}

}  // namespace perfbench
