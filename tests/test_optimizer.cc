/**
 * @file
 * Unit tests for the cloud cost optimizer.
 */

#include <gtest/gtest.h>

#include "cloud/optimizer.h"
#include "common/logging.h"
#include "common/random.h"

namespace doppio::cloud {
namespace {

/**
 * A hand-built app model resembling GATK4's profile: a GC-ish compute
 * stage with a large shuffle write, and a shuffle-read-dominated
 * stage — enough structure that disk size matters up to a knee.
 */
model::AppModel
syntheticApp()
{
    model::AppModel app;
    app.name = "synthetic";

    model::StageModel map;
    map.name = "map";
    map.tasks = 976;
    map.tAvg = 30.0;
    model::IoComponent write;
    write.op = storage::IoOp::ShuffleWrite;
    write.bytes = static_cast<Bytes>(334) * kGB;
    write.requestSize = 350e6;
    map.io.push_back(write);
    app.stages.push_back(map);

    model::StageModel reduce;
    reduce.name = "reduce";
    reduce.tasks = 12000;
    reduce.tAvg = 9.0;
    model::IoComponent read;
    read.op = storage::IoOp::ShuffleRead;
    read.bytes = static_cast<Bytes>(334) * kGB;
    read.requestSize = 30000.0;
    reduce.io.push_back(read);
    app.stages.push_back(reduce);
    return app;
}

CostOptimizer
makeOptimizer()
{
    return CostOptimizer(syntheticApp(), GcpPricing{},
                         CostOptimizer::Options{});
}

TEST(Optimizer, EvaluateComputesCostFromModelTime)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    const Evaluation eval = opt.evaluate(config);
    EXPECT_GT(eval.seconds, 0.0);
    EXPECT_NEAR(eval.cost,
                jobCost(config, GcpPricing{}, eval.seconds), 1e-9);
}

TEST(Optimizer, EvaluateIsDeterministic)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.hdfsSize = 500 * kGB;
    config.localSize = 500 * kGB;
    const Evaluation a = opt.evaluate(config);
    const Evaluation b = opt.evaluate(config);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(Optimizer, BiggerLocalDiskNeverSlower)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    std::vector<Bytes> sizes;
    for (Bytes gb = 200; gb <= 3200; gb *= 2)
        sizes.push_back(gb * kGB);
    const auto sweep = opt.sweepLocalSize(base, sizes);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LE(sweep[i].seconds, sweep[i - 1].seconds * 1.001);
}

TEST(Optimizer, RuntimeFlattensBeyondIopsKnee)
{
    // Fig. 14: past ~2 TB the pd-standard IOPS cap is reached.
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    const auto sweep = opt.sweepLocalSize(
        base, {2000 * kGB, 4000 * kGB, 8000 * kGB});
    EXPECT_NEAR(sweep[1].seconds, sweep[0].seconds,
                sweep[0].seconds * 0.02);
    EXPECT_NEAR(sweep[2].seconds, sweep[0].seconds,
                sweep[0].seconds * 0.02);
}

TEST(Optimizer, CostRisesOnceRuntimeIsFlat)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    const auto sweep = opt.sweepLocalSize(
        base, {2000 * kGB, 4000 * kGB, 8000 * kGB});
    EXPECT_LT(sweep[0].cost, sweep[1].cost);
    EXPECT_LT(sweep[1].cost, sweep[2].cost);
}

TEST(Optimizer, OptimizeBeatsReferenceConfigs)
{
    const CostOptimizer opt = makeOptimizer();
    const Evaluation best = opt.optimize();
    const Evaluation r1 = opt.evaluate(referenceR1());
    const Evaluation r2 = opt.evaluate(referenceR2());
    EXPECT_LT(best.cost, r1.cost);
    EXPECT_LT(best.cost, r2.cost);
}

TEST(Optimizer, OptimizeReturnsGridMinimum)
{
    CostOptimizer::Options options;
    options.sizeGrid = {500 * kGB, 1000 * kGB, 2000 * kGB};
    options.localTypes = {CloudDiskType::Standard};
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);
    const Evaluation best = opt.optimize();
    for (Bytes hdfs : options.sizeGrid) {
        for (Bytes local : options.sizeGrid) {
            CloudConfig config;
            config.workers = options.workers;
            config.vcpus = 16;
            config.hdfsSize = hdfs;
            config.localSize = local;
            EXPECT_GE(opt.evaluate(config).cost, best.cost - 1e-9);
        }
    }
}

TEST(Optimizer, SweepHdfsSizeVariesOnlyHdfs)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.localSize = 2000 * kGB;
    const auto sweep =
        opt.sweepHdfsSize(base, {500 * kGB, 1000 * kGB});
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_EQ(sweep[0].config.hdfsSize, 500 * kGB);
    EXPECT_EQ(sweep[1].config.hdfsSize, 1000 * kGB);
    EXPECT_EQ(sweep[0].config.localSize, 2000 * kGB);
}

TEST(Optimizer, DefaultGridIsGeometric)
{
    const auto grid = CostOptimizer::defaultSizeGrid();
    ASSERT_GE(grid.size(), 8u);
    // Strictly increasing, with at most half-octave steps.
    for (std::size_t i = 1; i < grid.size(); ++i) {
        const double ratio = static_cast<double>(grid[i]) /
                             static_cast<double>(grid[i - 1]);
        EXPECT_GT(ratio, 1.0);
        EXPECT_LE(ratio, 1.51);
    }
    EXPECT_EQ(grid.front(), 100 * kGB);
    EXPECT_GE(grid.back(), 6400 * kGB);
}

TEST(Optimizer, InvalidOptionsFatal)
{
    CostOptimizer::Options bad;
    bad.workers = 0;
    EXPECT_THROW(CostOptimizer(syntheticApp(), GcpPricing{}, bad),
                 FatalError);
}

TEST(Optimizer, ParallelJobsAreByteIdenticalToSerial)
{
    // The whole search space on a reduced grid, serial vs threaded:
    // every evaluation and the winner must agree exactly (the sweep
    // commits results in input order, DESIGN.md §11).
    auto search = [](int jobs) {
        CostOptimizer::Options options;
        options.sizeGrid = {250 * kGB, 1000 * kGB, 4000 * kGB};
        options.jobs = jobs;
        return CostOptimizer(syntheticApp(), GcpPricing{}, options);
    };
    const CostOptimizer serial = search(1);
    const Evaluation best_serial = serial.optimize();

    CloudConfig base;
    base.workers = 10;
    base.vcpus = 16;
    base.hdfsSize = 1000 * kGB;
    base.localSize = 2000 * kGB;
    const std::vector<Bytes> sizes = {200 * kGB, 800 * kGB,
                                      3200 * kGB};
    const auto sweep_serial = serial.sweepLocalSize(base, sizes);

    for (int jobs : {2, 4, 8}) {
        const CostOptimizer threaded = search(jobs);
        const Evaluation best = threaded.optimize();
        EXPECT_EQ(best.config.describe(),
                  best_serial.config.describe());
        EXPECT_EQ(best.seconds, best_serial.seconds);
        EXPECT_EQ(best.cost, best_serial.cost);

        const auto sweep = threaded.sweepLocalSize(base, sizes);
        ASSERT_EQ(sweep.size(), sweep_serial.size());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            EXPECT_EQ(sweep[i].seconds, sweep_serial[i].seconds);
            EXPECT_EQ(sweep[i].cost, sweep_serial[i].cost);
        }
    }
}

/** Assert the two constrained searches return identical answers. */
void
expectIdentical(const ConstrainedResult &pruned,
                const ConstrainedResult &exhaustive)
{
    ASSERT_EQ(pruned.feasible, exhaustive.feasible);
    if (!pruned.feasible)
        return;
    // Byte-identical, not approximately equal: both searches must pick
    // the same grid cell and report the same doubles bit for bit.
    EXPECT_EQ(pruned.best.config.describe(),
              exhaustive.best.config.describe());
    EXPECT_EQ(pruned.best.config.hdfsSize,
              exhaustive.best.config.hdfsSize);
    EXPECT_EQ(pruned.best.config.localSize,
              exhaustive.best.config.localSize);
    EXPECT_EQ(pruned.best.seconds, exhaustive.best.seconds);
    EXPECT_EQ(pruned.best.cost, exhaustive.best.cost);
}

TEST(Constrained, MatchesExhaustiveOnDefaultGrid)
{
    // The acceptance sweep: several deadlines and budgets spanning
    // infeasible -> tight -> loose, answered on the full default grid.
    // Aggregate cell touches must show >= 3x pruning.
    const CostOptimizer opt = makeOptimizer();
    const double minRuntime = opt.optimizeExhaustive(
        Constraint::fastestUnderBudget(1e9)).best.seconds;
    const double minCost =
        opt.optimizeExhaustive(Constraint::minCost()).best.cost;

    std::vector<Constraint> constraints;
    for (const double f : {0.9, 1.0, 1.2, 2.0, 10.0})
        constraints.push_back(
            Constraint::cheapestUnderDeadline(minRuntime * f));
    for (const double f : {0.9, 1.0, 1.5, 3.0})
        constraints.push_back(Constraint::fastestUnderBudget(minCost * f));

    std::uint64_t totalCells = 0;
    std::uint64_t touchedCells = 0;
    for (const Constraint &constraint : constraints) {
        const ConstrainedResult pruned =
            opt.optimizeConstrained(constraint);
        const ConstrainedResult exhaustive =
            opt.optimizeExhaustive(constraint);
        expectIdentical(pruned, exhaustive);
        EXPECT_EQ(pruned.stats.exhaustiveFallbacks, 0u);
        totalCells += pruned.stats.cellsTotal;
        touchedCells += pruned.stats.cellsTotal -
                        pruned.stats.cellsPruned;
    }
    // Branch-and-bound must touch at most a third of the grid across
    // the whole constraint set (the ISSUE acceptance bar).
    EXPECT_GE(totalCells, touchedCells * 3)
        << "touched " << touchedCells << " of " << totalCells;
}

TEST(Constrained, PropertyRandomShapesMatchExhaustive)
{
    // Property-style equivalence: random workload shapes (stage
    // counts, task counts, IO mixes) and random constraints; the
    // pruned argmin/cost/runtime must always equal the exhaustive
    // reference. Any monotonicity violation the guard detects turns
    // into a (counted) exhaustive fallback, never a wrong answer.
    Rng rng(20260809);
    const auto randomBetween = [&rng](double lo, double hi) {
        return lo + (hi - lo) * rng.uniform();
    };
    for (int trial = 0; trial < 12; ++trial) {
        model::AppModel app;
        app.name = "random-" + std::to_string(trial);
        const int stages = 1 + static_cast<int>(rng.uniform() * 3.0);
        for (int s = 0; s < stages; ++s) {
            model::StageModel stage;
            stage.name = "s" + std::to_string(s);
            stage.tasks = 100 + static_cast<int>(rng.uniform() * 8000.0);
            stage.tAvg = randomBetween(2.0, 60.0);
            const int ios = static_cast<int>(rng.uniform() * 3.0);
            for (int k = 0; k < ios; ++k) {
                model::IoComponent io;
                io.op = rng.uniform() < 0.5
                            ? storage::IoOp::ShuffleWrite
                            : storage::IoOp::ShuffleRead;
                io.bytes = static_cast<Bytes>(
                    randomBetween(20.0, 400.0) * kGB);
                io.requestSize = randomBetween(2e4, 4e8);
                stage.io.push_back(io);
            }
            app.stages.push_back(stage);
        }
        CostOptimizer::Options options;
        options.sizeGrid = {250 * kGB, 500 * kGB, 1000 * kGB,
                            2000 * kGB, 4000 * kGB};
        const CostOptimizer opt(app, GcpPricing{}, options);

        const double minRuntime = opt.optimizeExhaustive(
            Constraint::fastestUnderBudget(1e9)).best.seconds;
        const double minCost =
            opt.optimizeExhaustive(Constraint::minCost()).best.cost;
        const Constraint cases[] = {
            Constraint::cheapestUnderDeadline(
                minRuntime * randomBetween(0.8, 3.0)),
            Constraint::fastestUnderBudget(
                minCost * randomBetween(0.8, 3.0)),
            Constraint::minCost(),
        };
        for (const Constraint &constraint : cases) {
            expectIdentical(opt.optimizeConstrained(constraint),
                            opt.optimizeExhaustive(constraint));
        }
    }
}

TEST(Constrained, MonotonicityViolationFallsBackToExhaustive)
{
    // Manufacture a non-monotone surface: the largest local disk gets
    // an artificial slowdown, so a sub-grid's "fast" corner is slower
    // than its "slow" corner. The guard must detect it, abandon
    // pruning, count the fallback — and still match the exhaustive
    // answer on the same poisoned surface.
    CostOptimizer::Options options;
    options.sizeGrid = {250 * kGB, 1000 * kGB, 4000 * kGB};
    const Bytes poisoned = options.sizeGrid.back();
    options.secondsHook = [poisoned](const CloudConfig &config,
                                     double seconds) {
        return config.localSize == poisoned ? seconds * 4.0 : seconds;
    };
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);

    const Constraint constraint = Constraint::cheapestUnderDeadline(
        opt.optimizeExhaustive(Constraint::fastestUnderBudget(1e9))
            .best.seconds *
        1.5);
    const ConstrainedResult pruned = opt.optimizeConstrained(constraint);
    const ConstrainedResult exhaustive =
        opt.optimizeExhaustive(constraint);
    expectIdentical(pruned, exhaustive);
    EXPECT_GE(pruned.stats.exhaustiveFallbacks, 1u);
    EXPECT_EQ(pruned.stats.cellsPruned, 0u);
}

TEST(Constrained, UnsortedSizeGridFallsBackToExhaustive)
{
    CostOptimizer::Options options;
    options.sizeGrid = {1000 * kGB, 250 * kGB, 4000 * kGB};
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);
    const Constraint constraint =
        Constraint::cheapestUnderDeadline(1e9);
    const ConstrainedResult pruned = opt.optimizeConstrained(constraint);
    expectIdentical(pruned, opt.optimizeExhaustive(constraint));
    EXPECT_GE(pruned.stats.exhaustiveFallbacks, 1u);
}

TEST(Constrained, InfeasibleConstraintsAgree)
{
    const CostOptimizer opt = makeOptimizer();
    for (const Constraint &constraint :
         {Constraint::cheapestUnderDeadline(1e-6),
          Constraint::fastestUnderBudget(1e-6)}) {
        EXPECT_FALSE(opt.optimizeConstrained(constraint).feasible);
        EXPECT_FALSE(opt.optimizeExhaustive(constraint).feasible);
    }
}

TEST(Constrained, InvalidConstraintsFatal)
{
    const CostOptimizer opt = makeOptimizer();
    EXPECT_THROW(
        opt.optimizeConstrained(Constraint::cheapestUnderDeadline(0.0)),
        FatalError);
    EXPECT_THROW(
        opt.optimizeConstrained(Constraint::fastestUnderBudget(-1.0)),
        FatalError);
    EXPECT_THROW(
        opt.optimizeConstrained(Constraint::fastestUnderBudget(0.0)),
        FatalError);
    EXPECT_THROW(
        opt.optimizeExhaustive(Constraint::cheapestUnderDeadline(0.0)),
        FatalError);
}

/** An I/O-bound single-stage app where bigger local disks help. */
model::AppModel
diskBoundApp()
{
    model::AppModel app;
    app.name = "diskBound";
    model::StageModel stage;
    stage.name = "shuffle";
    stage.tasks = 5000;
    stage.tAvg = 2.0;
    model::IoComponent read;
    read.op = storage::IoOp::ShuffleRead;
    read.bytes = static_cast<Bytes>(300) * kGB;
    read.requestSize = 30000.0;
    stage.io.push_back(read);
    app.stages.push_back(stage);
    return app;
}

/**
 * The advisor's questions, asked of optimizeConstrained and
 * paretoFrontier: the cheapest configuration under a deadline, the
 * fastest under a budget, and the cost/runtime frontier that
 * `doppio optimize` prints.
 */
CostOptimizer
makeAdvisorOptimizer()
{
    CostOptimizer::Options options;
    options.sizeGrid = {200 * kGB, 500 * kGB, 1000 * kGB, 2000 * kGB};
    return CostOptimizer(diskBoundApp(), GcpPricing{}, options);
}

TEST(Advisor, CheapestUnderDeadlineSatisfiesIt)
{
    const CostOptimizer optimizer = makeAdvisorOptimizer();
    const double deadline = 30.0 * 60.0;
    const ConstrainedResult result = optimizer.optimizeConstrained(
        Constraint::cheapestUnderDeadline(deadline));
    ASSERT_TRUE(result.feasible);
    EXPECT_LE(result.best.seconds, deadline);
    // Not cheaper than the unconstrained optimum.
    EXPECT_GE(result.best.cost, optimizer.optimize().cost - 1e-9);
}

TEST(Advisor, TighterDeadlineCostsMore)
{
    const CostOptimizer optimizer = makeAdvisorOptimizer();
    const Evaluation cheapest = optimizer.optimize();
    const double fastest =
        optimizer.optimizeConstrained(Constraint::fastestUnderBudget(1e9))
            .best.seconds;
    // Tighten the deadline from the optimum's runtime to the fastest
    // cell's: each answer meets it and costs no less than the answer
    // to a looser deadline.
    double looserCost = cheapest.cost;
    for (const double f : {1.0, 0.75, 0.5, 0.25, 0.0}) {
        const double deadline =
            fastest + f * (cheapest.seconds - fastest);
        const ConstrainedResult result = optimizer.optimizeConstrained(
            Constraint::cheapestUnderDeadline(deadline));
        ASSERT_TRUE(result.feasible) << "deadline " << deadline;
        EXPECT_LE(result.best.seconds, deadline);
        EXPECT_GE(result.best.cost, looserCost - 1e-9);
        looserCost = result.best.cost;
    }
}

TEST(Advisor, FastestUnderBudgetSatisfiesIt)
{
    const CostOptimizer optimizer = makeAdvisorOptimizer();
    const double budget = optimizer.optimize().cost * 2.0;
    const ConstrainedResult result =
        optimizer.optimizeConstrained(Constraint::fastestUnderBudget(budget));
    ASSERT_TRUE(result.feasible);
    EXPECT_LE(result.best.cost, budget);
}

TEST(Advisor, ParetoFrontierIsMonotone)
{
    const CostOptimizer optimizer = makeAdvisorOptimizer();
    const std::vector<Evaluation> frontier =
        paretoFrontier(optimizer.evaluateAll(optimizer.candidateGrid()));
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        // Sorted by runtime ascending; cost strictly decreasing.
        EXPECT_GE(frontier[i].seconds, frontier[i - 1].seconds);
        EXPECT_LT(frontier[i].cost, frontier[i - 1].cost);
    }
}

TEST(Advisor, FrontierContainsOptimum)
{
    const CostOptimizer optimizer = makeAdvisorOptimizer();
    const Evaluation best = optimizer.optimize();
    const std::vector<Evaluation> frontier =
        paretoFrontier(optimizer.evaluateAll(optimizer.candidateGrid()));
    ASSERT_FALSE(frontier.empty());
    // The cheapest point is the frontier's last entry.
    EXPECT_NEAR(frontier.back().cost, best.cost, 1e-9);
}

TEST(Memo, RepeatedCellsAreServedFromTheMemo)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    const Evaluation first = opt.evaluate(config);
    const SearchStats afterFirst = opt.searchStats();
    EXPECT_EQ(afterFirst.cellsEvaluated, 1u);
    EXPECT_EQ(afterFirst.memoHits, 0u);
    const Evaluation second = opt.evaluate(config);
    const SearchStats afterSecond = opt.searchStats();
    EXPECT_EQ(afterSecond.cellsEvaluated, 1u);
    EXPECT_EQ(afterSecond.memoHits, 1u);
    EXPECT_EQ(first.seconds, second.seconds);
    EXPECT_EQ(first.cost, second.cost);

    // A whole repeated sweep is free: optimize() twice evaluates the
    // grid once.
    const Evaluation a = opt.optimize();
    const std::uint64_t evaluatedAfterSweep =
        opt.searchStats().cellsEvaluated;
    const Evaluation b = opt.optimize();
    EXPECT_EQ(opt.searchStats().cellsEvaluated, evaluatedAfterSweep);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.cost, b.cost);
}

TEST(Memo, DisabledMemoStillGivesIdenticalAnswers)
{
    CostOptimizer::Options plain;
    CostOptimizer::Options noMemo;
    noMemo.memoCapacity = 0;
    const CostOptimizer with(syntheticApp(), GcpPricing{}, plain);
    const CostOptimizer without(syntheticApp(), GcpPricing{}, noMemo);
    const Constraint constraint = Constraint::cheapestUnderDeadline(
        with.optimizeExhaustive(Constraint::fastestUnderBudget(1e9))
            .best.seconds *
        1.2);
    expectIdentical(with.optimizeConstrained(constraint),
                    without.optimizeConstrained(constraint));
    EXPECT_EQ(without.searchStats().memoHits, 0u);
}

TEST(Optimizer, DeterministicAcrossJobCounts)
{
    // The disk-table memo behind PlatformProfile::fromDisks is filled
    // outside its lock, first insert wins. Disk sizes no other test in
    // this binary uses keep the memo cold even when the whole binary
    // runs in one process (as the sanitizer jobs run it), so the
    // parallel sweeps come first and their threads race to profile
    // every grid disk. The serial sweep after them is the reference:
    // every evaluation must be byte-identical — a discarded racer was
    // an identical copy, never a different table.
    CostOptimizer::Options options;
    options.sizeGrid = {333 * kGB, 666 * kGB, 1333 * kGB, 2666 * kGB};
    std::vector<CloudConfig> grid;
    std::vector<std::pair<int, std::vector<Evaluation>>> threaded;
    for (const int jobs : {8, 4, 2}) {
        options.jobs = jobs;
        const CostOptimizer optimizer(syntheticApp(), GcpPricing{},
                                      options);
        grid = optimizer.candidateGrid();
        threaded.emplace_back(jobs, optimizer.evaluateAll(grid));
    }
    options.jobs = 1;
    const CostOptimizer serial(syntheticApp(), GcpPricing{}, options);
    const std::vector<Evaluation> reference = serial.evaluateAll(grid);
    for (const auto &[jobs, got] : threaded) {
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].seconds, reference[i].seconds)
                << "jobs=" << jobs << " cell " << i;
            EXPECT_EQ(got[i].cost, reference[i].cost)
                << "jobs=" << jobs << " cell " << i;
        }
    }
}

} // namespace
} // namespace doppio::cloud
