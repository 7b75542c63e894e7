// paper_contours -- serial characterizeInterdependent on the TSPC register
// (paper Fig. 8) and the C2MOS register (Fig. 12), with the window,
// criterion and tracer settings of bench_fig8_tspc_contour /
// bench_fig12_c2mos_contour and no store. The seed only shuffles the cell
// order within each round; both cells run equally often, so per-cell
// figures are averaged instead of pooling a two-mode sample.
//
// Every call on a cell repeats identical work, so host contention can only
// add time to it: op_ms is the fastest call of each cell (mean over the
// cells). The median, tail and throughput of the same calls are reported
// by the traced run, whose first half is untraced.
//
// Traced runs replay the pipeline characterizeInterdependent runs --
// problem, findSeedPoint, hold clamp, traceContour -- from here, with a
// TimedHFunction in place of the problem's h, and must give the same
// contour.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <random>
#include <stdexcept>

#include "common.hpp"
#include "shtrace/cells/c2mos.hpp"
#include "shtrace/cells/tspc.hpp"
#include "shtrace/chz/characterize.hpp"

namespace perfbench {

namespace {

using namespace shtrace;

struct PaperCell {
    std::string name;
    std::string referenceFile;
    std::unique_ptr<RegisterFixture> fixture;
    RunConfig config;
    ContourPolyline reference;
};

RunConfig paperConfig(const CriterionOptions& criterion,
                      const SkewBounds& window, int maxPoints) {
    RunConfig config;
    config.criterion = criterion;
    config.tracer.maxPoints = maxPoints;
    config.tracer.bounds = window;
    config.tracer.stepLength = 8e-12;
    config.tracer.maxStepLength = 30e-12;
    return config;
}

std::vector<PaperCell> makeCells(int maxPoints) {
    std::vector<PaperCell> cells(2);
    cells[0].name = "tspc_fig8";
    cells[0].referenceFile = "fig8_tspc.csv";
    cells[0].fixture = std::make_unique<RegisterFixture>(buildTspcRegister());
    cells[0].config =
        paperConfig(CriterionOptions{},
                    SkewBounds{120e-12, 560e-12, 60e-12, 460e-12}, maxPoints);

    CriterionOptions c2mos;
    c2mos.transitionFraction = 0.9;
    cells[1].name = "c2mos_fig12";
    cells[1].referenceFile = "fig12_c2mos.csv";
    cells[1].fixture = std::make_unique<RegisterFixture>(buildC2mosRegister());
    cells[1].config = paperConfig(
        c2mos, SkewBounds{250e-12, 800e-12, 100e-12, 600e-12}, maxPoints);
    return cells;
}

/// The correctness checks of one contour; returns its distance (s) to the
/// committed reference.
double checkContour(Report& report, const PaperCell& cell, bool seedFound,
                    const TracedContour& contour, bool smoke) {
    if (!seedFound || !contour.seedConverged || contour.points.empty()) {
        report.fail(cell.name + ": seed search or seed correction failed");
        return 0.0;
    }
    const double hTol = cell.config.tracer.corrector.hTol;
    for (double r : contour.residuals) {
        if (!(std::abs(r) <= hTol)) {
            report.fail(cell.name + ": |h| = " + std::to_string(r) +
                        " above the MPNR tolerance");
            break;
        }
    }
    const double err = maxDistance(contour.points, cell.reference);
    if (!(err <= kContourToleranceSeconds)) {
        report.fail(cell.name + ": contour is " + std::to_string(err * 1e15) +
                    " fs from the reference");
    }
    // A full-size trace must also cover the reference, not a piece of it.
    if (!smoke && 2 * contour.points.size() < cell.reference.size()) {
        report.fail(cell.name + ": contour has too few points");
    }
    return err;
}

/// One traced replay of characterizeInterdependent's pipeline.
struct TracedCall {
    double totalS = 0.0;
    double problemS = 0.0;
    double seedS = 0.0;
    double traceS = 0.0;
    double traceInsideHS = 0.0;  ///< h time during traceContour
    double hS = 0.0;             ///< h time during seed + trace
    std::size_t seedEvals = 0;
    std::size_t traceEvals = 0;  ///< evaluate() calls during the trace
    std::vector<double> evalMillis;
    std::vector<double> valueMillis;
    SimStats stats;  ///< seed + trace (the h-evaluation transients)
    SeedResult seed;
    TracedContour contour;
};

TracedCall tracedCharacterize(const PaperCell& cell) {
    TracedCall call;
    const RunConfig& cfg = cell.config;
    const auto start = Clock::now();
    const CharacterizationProblem problem(*cell.fixture, cfg.criterion,
                                          cfg.recipe);
    call.problemS = secondsSince(start);

    const TimedHFunction h(problem.h());
    const auto seedStart = Clock::now();
    call.seed = findSeedPoint(h, problem.passSign(), cfg.seed, &call.stats);
    call.seedS = secondsSince(seedStart);
    call.seedEvals = h.valueMillis().size() + h.evalMillis().size();

    if (call.seed.found) {
        SkewPoint seed = call.seed.seed;
        seed.hold = std::clamp(seed.hold, cfg.tracer.bounds.holdMin,
                               cfg.tracer.bounds.holdMax);
        const double hBefore = h.seconds();
        const std::size_t evalsBefore = h.evalMillis().size();
        const auto traceStart = Clock::now();
        call.contour = traceContour(h, seed, cfg.tracer, &call.stats);
        call.traceS = secondsSince(traceStart);
        call.traceInsideHS = h.seconds() - hBefore;
        call.traceEvals = h.evalMillis().size() - evalsBefore;
    }
    call.totalS = secondsSince(start);
    call.hS = h.seconds();
    call.evalMillis = h.evalMillis();
    call.valueMillis = h.valueMillis();
    return call;
}

double meanOverCells(const std::vector<std::vector<double>>& perCell,
                     double q) {
    double total = 0.0;
    for (const auto& samples : perCell) {
        total += quantile(samples, q);
    }
    return total / static_cast<double>(perCell.size());
}

}  // namespace

void writePaperReferences(const std::string& dir) {
    for (PaperCell& cell : makeCells(40)) {
        const CharacterizeResult result =
            characterizeInterdependent(*cell.fixture, cell.config);
        if (!result.success) {
            throw std::runtime_error("perfbench: " + cell.name +
                                     " characterization failed");
        }
        writeContourCsv(dir + "/" + cell.referenceFile,
                        cell.name + " reference contour (perfbench "
                                    "--write-reference)",
                        result.contour.points);
        std::cerr << "wrote " << dir << "/" << cell.referenceFile << " ("
                  << result.contour.points.size() << " points)\n";
    }
}

void runPaperContours(const Options& options, Report& report) {
    std::vector<PaperCell> cells;
    SetupTimer setup([&] {
        cells = makeCells(options.smoke ? 6 : 40);
        for (PaperCell& cell : cells) {
            cell.reference = readContourCsv(options.dataDir + "/reference/" +
                                            cell.referenceFile);
        }
    });
    setup.run(kSetupsBefore);

    std::mt19937_64 rng(options.seed);
    std::vector<std::vector<double>> callMillis(cells.size());
    std::vector<TracedContour> untracedContour(cells.size());
    std::size_t calls = 0;
    double worstErr = 0.0;
    const double budget = options.trace ? options.seconds / 2 : options.seconds;
    const double wall = runFor(budget, 1, [&] {
        std::vector<std::size_t> order(cells.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i : order) {
            const PaperCell& cell = cells[i];
            report.run(cell.name, [&] {
                const auto start = Clock::now();
                const CharacterizeResult result =
                    characterizeInterdependent(*cell.fixture, cell.config);
                callMillis[i].push_back(millisSince(start));
                ++calls;
                if (!result.success) {
                    report.fail(cell.name + ": " + result.failureReason);
                    return;
                }
                worstErr = std::max(
                    worstErr, checkContour(report, cell, result.seed.found,
                                           result.contour, options.smoke));
                untracedContour[i] = result.contour;
            });
        }
        if (!options.trace) {
            setup.run(kSetupsAfterEach);
        }
    });

    if (!options.trace) {
        report.set("setup_s", setup.medianSeconds());
        report.set("op_ms", meanOverCells(callMillis, 0.0));
        report.set("peak_rss_mb", peakRssMb());
        return;
    }
    report.set("op_p50_ms", meanOverCells(callMillis, 0.5));
    report.set("op_tail_ms", meanOverCells(callMillis, 0.9));
    report.set("ops_per_s", static_cast<double>(calls) / wall);

    // Traced half: the same pipeline, stage by stage.
    std::vector<std::vector<double>> tracedMillis(cells.size()),
        problemS(cells.size()), seedS(cells.size()), traceS(cells.size()),
        selfS(cells.size()), stagesMillis(cells.size());
    std::vector<double> evalMillis, valueMillis;
    SimStats stats;
    double hSeconds = 0.0, modeled = 0.0;
    double seedEvals = 0.0, hCalls = 0.0, points = 0.0, traceEvals = 0.0;
    std::size_t tracedCalls = 0;
    std::vector<UnitCosts> costs;
    for (const PaperCell& cell : cells) {
        const CharacterizationProblem problem(
            *cell.fixture, cell.config.criterion, cell.config.recipe);
        costs.push_back(
            probeAt(problem, cell.config.recipe, cell.reference.front()));
    }
    runFor(options.seconds / 2, 1, [&] {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const PaperCell& cell = cells[i];
            report.run(cell.name + " (traced)", [&] {
                const TracedCall call = tracedCharacterize(cell);
                worstErr = std::max(
                    worstErr, checkContour(report, cell, call.seed.found,
                                           call.contour, options.smoke));
                const TracedContour& plain = untracedContour[i];
                if (call.contour.points.size() != plain.points.size() ||
                    maxDistance(call.contour.points, plain.points) >
                        kContourToleranceSeconds) {
                    report.fail(cell.name +
                                ": traced pipeline contour differs from "
                                "characterizeInterdependent");
                }
                ++tracedCalls;
                tracedMillis[i].push_back(1e3 * call.totalS);
                problemS[i].push_back(call.problemS);
                seedS[i].push_back(call.seedS);
                traceS[i].push_back(call.traceS);
                selfS[i].push_back(call.traceS - call.traceInsideHS);
                evalMillis.insert(evalMillis.end(), call.evalMillis.begin(),
                                  call.evalMillis.end());
                valueMillis.insert(valueMillis.end(),
                                   call.valueMillis.begin(),
                                   call.valueMillis.end());
                stats.merge(call.stats);
                hSeconds += call.hS;
                modeled += modeledSeconds(call.stats, costs[i]);
                stagesMillis[i].push_back(
                    1e3 * (call.problemS + call.seedS + call.traceS));
                seedEvals += static_cast<double>(call.seedEvals);
                hCalls += static_cast<double>(call.evalMillis.size() +
                                              call.valueMillis.size());
                points += static_cast<double>(call.contour.points.size());
                traceEvals += static_cast<double>(call.traceEvals);
            });
        }
    });

    // The stages against the untraced call they replay: below 1 when
    // characterizeInterdependent does work outside problem, seed and trace.
    std::vector<double> premiums, stageFracs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const PaperCell& cell = cells[i];
        const CharacterizationProblem problem(
            *cell.fixture, cell.config.criterion, cell.config.recipe);
        premiums.push_back(
            sensitivityPremium(problem, untracedContour[i].points));
        stageFracs.push_back(
            ratio(median(stagesMillis[i]), median(callMillis[i])));
    }
    const double n = static_cast<double>(tracedCalls);
    report.set("chz.problem_s", meanOverCells(problemS, 0.5));
    report.set("chz.seed_s", meanOverCells(seedS, 0.5));
    report.set("chz.seed_evals", ratio(seedEvals, n));
    report.set("chz.trace_s", meanOverCells(traceS, 0.5));
    report.set("chz.tracer_self_s", meanOverCells(selfS, 0.5));
    report.set("chz.tracer_useful_ratio", ratio(points, traceEvals));
    report.set("chz.mpnr_iters_per_point",
               ratio(static_cast<double>(stats.mpnrIterations), points));
    report.set("chz.h_eval_ms_p50", quantile(evalMillis, 0.5));
    report.set("chz.h_eval_ms_p99", quantile(evalMillis, 0.99));
    report.set("chz.h_value_ms_p50", quantile(valueMillis, 0.5));
    report.set("chz.h_value_ms_p99", quantile(valueMillis, 0.99));
    report.set("chz.h_calls", ratio(hCalls, n));
    report.set("chz.stage_sum_frac",
               sum(stageFracs) / static_cast<double>(stageFracs.size()));
    setCounterMetrics(report, stats);
    report.set("analysis.sensitivity_premium",
               sum(premiums) / static_cast<double>(premiums.size()));
    setUnitCostMetrics(report, meanCosts(costs));
    report.set("attributed_frac", ratio(modeled, hSeconds));
    report.set("contour_err_ps", worstErr * 1e12);
    report.set("trace_overhead_frac",
               ratio(meanOverCells(tracedMillis, 0.5),
                     meanOverCells(callMillis, 0.5)) -
                   1.0);
}

}  // namespace perfbench
