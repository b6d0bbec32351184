#include "cloud/optimizer.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "common/parallel.h"

namespace doppio::cloud {

namespace {

/**
 * Bound slack: the monotonicity tests tolerate runtime wobble up to
 * 0.1% (BiggerLocalDiskNeverSlower), so corner bounds are relaxed by
 * twice that before pruning — a box is only skipped when it loses by
 * more than any tolerated wobble could explain.
 */
constexpr double kBoundSlack = 2e-3;
/** Corner-violation threshold for the exhaustive fallback guard. */
constexpr double kMonotoneTol = 1e-3;

/** Is @p eval admissible under @p c? */
bool
feasibleUnder(const Evaluation &eval, const Constraint &c)
{
    switch (c.kind) {
    case Constraint::Kind::MinCost:
        return true;
    case Constraint::Kind::CheapestUnderDeadline:
        return eval.seconds <= c.deadlineSec;
    case Constraint::Kind::FastestUnderBudget:
        return eval.cost <= c.budgetUsd;
    }
    return false;
}

/** The quantity @p c minimizes. */
double
objectiveOf(const Evaluation &eval, const Constraint &c)
{
    return c.kind == Constraint::Kind::FastestUnderBudget ? eval.seconds
                                                          : eval.cost;
}

void
validateConstraint(const Constraint &c)
{
    if (c.kind == Constraint::Kind::CheapestUnderDeadline &&
        c.deadlineSec <= 0.0)
        fatal("Constraint: CheapestUnderDeadline needs deadlineSec > 0");
    if (c.kind == Constraint::Kind::FastestUnderBudget &&
        c.budgetUsd <= 0.0)
        fatal("Constraint: FastestUnderBudget needs budgetUsd > 0");
}

SearchStats
statsDelta(const SearchStats &now, const SearchStats &before)
{
    SearchStats d;
    d.cellsTotal = now.cellsTotal - before.cellsTotal;
    d.cellsEvaluated = now.cellsEvaluated - before.cellsEvaluated;
    d.memoHits = now.memoHits - before.memoHits;
    d.cellsPruned = now.cellsPruned - before.cellsPruned;
    d.exhaustiveFallbacks =
        now.exhaustiveFallbacks - before.exhaustiveFallbacks;
    return d;
}

} // namespace

Constraint
Constraint::minCost()
{
    return Constraint{};
}

Constraint
Constraint::cheapestUnderDeadline(double deadlineSec)
{
    Constraint c;
    c.kind = Kind::CheapestUnderDeadline;
    c.deadlineSec = deadlineSec;
    return c;
}

Constraint
Constraint::fastestUnderBudget(double budgetUsd)
{
    Constraint c;
    c.kind = Kind::FastestUnderBudget;
    c.budgetUsd = budgetUsd;
    return c;
}

const Evaluation *
selectBest(const std::vector<Evaluation> &evals,
           const Constraint &constraint)
{
    const Evaluation *best = nullptr;
    for (const Evaluation &eval : evals) {
        if (!feasibleUnder(eval, constraint))
            continue;
        if (best == nullptr ||
            objectiveOf(eval, constraint) < objectiveOf(*best, constraint))
            best = &eval;
    }
    return best;
}

std::vector<Evaluation>
paretoFrontier(std::vector<Evaluation> evals)
{
    std::sort(evals.begin(), evals.end(),
              [](const Evaluation &a, const Evaluation &b) {
                  if (a.seconds != b.seconds)
                      return a.seconds < b.seconds;
                  return a.cost < b.cost;
              });
    std::vector<Evaluation> frontier;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const Evaluation &eval : evals) {
        if (eval.cost < best_cost) {
            frontier.push_back(eval);
            best_cost = eval.cost;
        }
    }
    return frontier;
}

CostOptimizer::CostOptimizer(model::AppModel appModel, GcpPricing pricing,
                             Options options)
    : app_(std::move(appModel)), pricing_(pricing),
      options_(std::move(options))
{
    if (options_.workers <= 0)
        fatal("CostOptimizer: workers must be positive");
    if (options_.sizeGrid.empty())
        options_.sizeGrid = defaultSizeGrid();
    if (options_.memoCapacity > 0)
        memo_ = std::make_unique<common::LruCache<std::string, Evaluation>>(
            options_.memoCapacity);
}

std::vector<Bytes>
CostOptimizer::defaultSizeGrid()
{
    // Half-octave geometric grid, 100 GB .. 8 TB (decimal GB as GCP
    // provisions) — fine enough to land within ~25% of the continuous
    // optimum.
    std::vector<Bytes> grid;
    for (double gb = 100.0; gb <= 8200.0; gb *= 2.0) {
        grid.push_back(static_cast<Bytes>(gb * 1e9));
        const double mid = gb * 1.5;
        if (mid <= 8200.0)
            grid.push_back(static_cast<Bytes>(mid * 1e9));
    }
    return grid;
}

std::string
CostOptimizer::memoKey(const CloudConfig &config)
{
    std::string key;
    key.reserve(48);
    key += std::to_string(config.workers);
    key += '|';
    key += std::to_string(config.vcpus);
    key += '|';
    key += std::to_string(static_cast<int>(config.hdfsType));
    key += '|';
    key += std::to_string(config.hdfsSize);
    key += '|';
    key += std::to_string(static_cast<int>(config.localType));
    key += '|';
    key += std::to_string(config.localSize);
    return key;
}

Evaluation
CostOptimizer::evaluateUncached(const CloudConfig &config) const
{
    Evaluation eval;
    eval.config = config;
    eval.seconds = app_.predictSeconds(
        config.workers, config.vcpus,
        model::PlatformProfile::fromDisks(
            makeCloudDiskParams(config.hdfsType, config.hdfsSize),
            makeCloudDiskParams(config.localType, config.localSize)));
    if (options_.secondsHook)
        eval.seconds = options_.secondsHook(config, eval.seconds);
    eval.cost = jobCost(config, pricing_, eval.seconds);
    return eval;
}

Evaluation
CostOptimizer::evaluate(const CloudConfig &config) const
{
    if (memo_ == nullptr) {
        const Evaluation eval = evaluateUncached(config);
        const std::lock_guard<std::mutex> lock(*memoMutex_);
        ++stats_.cellsEvaluated;
        return eval;
    }
    const std::string key = memoKey(config);
    {
        const std::lock_guard<std::mutex> lock(*memoMutex_);
        if (const Evaluation *hit = memo_->get(key)) {
            ++stats_.memoHits;
            return *hit;
        }
    }
    // Model outside the lock; a concurrent miss on the same key
    // computes the identical value and the second put overwrites it
    // with the same bytes.
    const Evaluation eval = evaluateUncached(config);
    const std::lock_guard<std::mutex> lock(*memoMutex_);
    ++stats_.cellsEvaluated;
    memo_->put(key, eval);
    return eval;
}

std::vector<Evaluation>
CostOptimizer::evaluateAll(const std::vector<CloudConfig> &configs) const
{
    const common::SweepRunner runner(options_.jobs);
    return runner.map(configs.size(), [&](std::size_t i) {
        return evaluate(configs[i]);
    });
}

std::vector<CloudConfig>
CostOptimizer::candidateGrid() const
{
    std::vector<CloudConfig> candidates;
    for (int vcpus : options_.vcpuChoices) {
        for (CloudDiskType hdfs_type : options_.hdfsTypes) {
            for (CloudDiskType local_type : options_.localTypes) {
                for (Bytes hdfs_size : options_.sizeGrid) {
                    for (Bytes local_size : options_.sizeGrid) {
                        CloudConfig config;
                        config.workers = options_.workers;
                        config.vcpus = vcpus;
                        config.hdfsType = hdfs_type;
                        config.hdfsSize = hdfs_size;
                        config.localType = local_type;
                        config.localSize = local_size;
                        candidates.push_back(config);
                    }
                }
            }
        }
    }
    return candidates;
}

std::vector<Evaluation>
CostOptimizer::evaluatePrefix(
    const std::vector<CloudConfig> &configs,
    const std::function<bool()> &keepGoing) const
{
    std::vector<Evaluation> completed;
    completed.reserve(configs.size());
    for (const CloudConfig &config : configs) {
        if (keepGoing && !keepGoing())
            break;
        completed.push_back(evaluate(config));
    }
    return completed;
}

Evaluation
CostOptimizer::optimize() const
{
    // Enumerate the grid in the canonical (serial) order, fan the
    // independent evaluations out, then pick the winner by scanning
    // the committed results in that same order — strict less-than
    // keeps the first-cheapest tie-breaking identical to the serial
    // nested loops for any thread count.
    const ConstrainedResult result = runExhaustive(Constraint::minCost());
    if (!result.feasible) {
        Evaluation none;
        none.cost = std::numeric_limits<double>::infinity();
        return none;
    }
    return result.best;
}

ConstrainedResult
CostOptimizer::runExhaustive(const Constraint &c) const
{
    const std::vector<CloudConfig> grid = candidateGrid();
    const std::vector<Evaluation> evals = evaluateAll(grid);
    ConstrainedResult result;
    if (const Evaluation *best = selectBest(evals, c)) {
        result.feasible = true;
        result.best = *best;
    }
    const std::lock_guard<std::mutex> lock(*memoMutex_);
    stats_.cellsTotal += grid.size();
    return result;
}

ConstrainedResult
CostOptimizer::optimizeExhaustive(const Constraint &c) const
{
    validateConstraint(c);
    const SearchStats before = searchStats();
    ConstrainedResult result = runExhaustive(c);
    result.stats = statsDelta(searchStats(), before);
    return result;
}

ConstrainedResult
CostOptimizer::optimizeConstrained(const Constraint &c) const
{
    validateConstraint(c);
    const SearchStats before = searchStats();

    // Pruning needs the size axes ordered; an unsorted or duplicated
    // grid gets the (always correct) exhaustive answer instead.
    bool sortedGrid = true;
    for (std::size_t i = 1; i < options_.sizeGrid.size(); ++i)
        sortedGrid =
            sortedGrid && options_.sizeGrid[i - 1] < options_.sizeGrid[i];

    ConstrainedResult result;
    bool pruned = false;
    if (sortedGrid)
        pruned = runBranchAndBound(c, &result);
    if (!pruned) {
        {
            const std::lock_guard<std::mutex> lock(*memoMutex_);
            ++stats_.exhaustiveFallbacks;
        }
        result = runExhaustive(c);
    }
    result.stats = statsDelta(searchStats(), before);
    return result;
}

bool
CostOptimizer::runBranchAndBound(const Constraint &c,
                                 ConstrainedResult *out) const
{
    const std::vector<Bytes> &sizes = options_.sizeGrid;
    const std::size_t G = sizes.size();
    const std::size_t V = options_.vcpuChoices.size();
    const std::size_t H = options_.hdfsTypes.size();
    const std::size_t L = options_.localTypes.size();
    const std::size_t total = V * H * L * G * G;
    if (total == 0) {
        const std::lock_guard<std::mutex> lock(*memoMutex_);
        stats_.cellsTotal += total;
        return true;
    }

    const auto makeConfig = [&](std::size_t combo, std::size_t h,
                                std::size_t l) {
        CloudConfig config;
        config.workers = options_.workers;
        config.vcpus = options_.vcpuChoices[combo / (H * L)];
        config.hdfsType = options_.hdfsTypes[(combo / L) % H];
        config.localType = options_.localTypes[combo % L];
        config.hdfsSize = sizes[h];
        config.localSize = sizes[l];
        return config;
    };
    const auto canonIdx = [&](std::size_t combo, std::size_t h,
                              std::size_t l) -> std::uint64_t {
        return (static_cast<std::uint64_t>(combo) * G + h) * G + l;
    };

    // Incumbent ordered by (objective, canonical index): identical to
    // the exhaustive scan's first-best-strictly-better rule.
    bool haveBest = false;
    Evaluation best;
    double bestValue = 0.0;
    std::uint64_t bestIdx = 0;
    std::vector<char> seen(total, 0);
    std::uint64_t touched = 0;

    const auto evalCell = [&](std::size_t combo, std::size_t h,
                              std::size_t l) {
        const std::uint64_t idx = canonIdx(combo, h, l);
        if (!seen[idx]) {
            seen[idx] = 1;
            ++touched;
        }
        const Evaluation eval = evaluate(makeConfig(combo, h, l));
        if (feasibleUnder(eval, c)) {
            const double value = objectiveOf(eval, c);
            if (!haveBest || value < bestValue ||
                (value == bestValue && idx < bestIdx)) {
                haveBest = true;
                best = eval;
                bestValue = value;
                bestIdx = idx;
            }
        }
        return eval;
    };

    /** A sub-grid [h0,h1] x [l0,l1] (inclusive) of one combo. */
    struct Box
    {
        std::size_t combo = 0;
        std::size_t h0 = 0, h1 = 0, l0 = 0, l1 = 0;
        double bound = 0.0;      //!< lower bound on the objective
        std::uint64_t origin = 0; //!< canonical index of (h0, l0)
    };
    const auto boxAfter = [](const Box &a, const Box &b) {
        if (a.bound != b.bound)
            return a.bound > b.bound;
        return a.origin > b.origin;
    };
    std::priority_queue<Box, std::vector<Box>, decltype(boxAfter)> open(
        boxAfter);

    bool monotoneViolated = false;
    // Evaluate a box's extreme corners, bound it, and push it unless
    // the bound already proves it infeasible (a prune). Returns false
    // on a monotonicity violation between the corners.
    const auto pushBox = [&](std::size_t combo, std::size_t h0,
                             std::size_t h1, std::size_t l0,
                             std::size_t l1) -> bool {
        const Evaluation lo = evalCell(combo, h0, l0); // smallest disks
        const Evaluation hi = evalCell(combo, h1, l1); // largest disks
        if (hi.seconds > lo.seconds * (1.0 + kMonotoneTol)) {
            monotoneViolated = true;
            return false;
        }
        const double secondsLb = hi.seconds * (1.0 - kBoundSlack);
        const double costLb =
            fleetCostPerHour(lo.config, pricing_) * secondsLb / 3600.0;
        if (c.kind == Constraint::Kind::CheapestUnderDeadline &&
            secondsLb > c.deadlineSec)
            return true; // every cell too slow: prune the whole box
        if (c.kind == Constraint::Kind::FastestUnderBudget &&
            costLb > c.budgetUsd)
            return true; // every cell too dear: prune the whole box
        // Corners cover a 1- or 2-cell box completely.
        if ((h1 - h0 + 1) * (l1 - l0 + 1) <= 2)
            return true;
        Box box;
        box.combo = combo;
        box.h0 = h0;
        box.h1 = h1;
        box.l0 = l0;
        box.l1 = l1;
        box.bound = c.kind == Constraint::Kind::FastestUnderBudget
                        ? secondsLb
                        : costLb;
        box.origin = canonIdx(combo, h0, l0);
        open.push(box);
        return true;
    };

    for (std::size_t combo = 0; combo < V * H * L; ++combo) {
        if (!pushBox(combo, 0, G - 1, 0, G - 1))
            return false;
    }
    while (!open.empty()) {
        const Box box = open.top();
        open.pop();
        // Strictly-worse only: a box whose bound ties the incumbent
        // may still hold the canonical-earlier argmin.
        if (haveBest && box.bound > bestValue)
            continue;
        const std::size_t hs = box.h1 - box.h0;
        const std::size_t ls = box.l1 - box.l0;
        bool ok;
        if (hs >= ls && hs > 0) {
            const std::size_t mid = box.h0 + hs / 2;
            ok = pushBox(box.combo, box.h0, mid, box.l0, box.l1) &&
                 pushBox(box.combo, mid + 1, box.h1, box.l0, box.l1);
        } else {
            const std::size_t mid = box.l0 + ls / 2;
            ok = pushBox(box.combo, box.h0, box.h1, box.l0, mid) &&
                 pushBox(box.combo, box.h0, box.h1, mid + 1, box.l1);
        }
        if (!ok)
            return false;
    }
    if (monotoneViolated)
        return false;

    out->feasible = haveBest;
    if (haveBest)
        out->best = best;
    const std::lock_guard<std::mutex> lock(*memoMutex_);
    stats_.cellsTotal += total;
    stats_.cellsPruned += total - touched;
    return true;
}

SearchStats
CostOptimizer::searchStats() const
{
    const std::lock_guard<std::mutex> lock(*memoMutex_);
    return stats_;
}

std::vector<Evaluation>
CostOptimizer::sweepLocalSize(CloudConfig base,
                              const std::vector<Bytes> &sizes) const
{
    std::vector<CloudConfig> configs(sizes.size(), base);
    for (std::size_t i = 0; i < sizes.size(); ++i)
        configs[i].localSize = sizes[i];
    return evaluateAll(configs);
}

std::vector<Evaluation>
CostOptimizer::sweepHdfsSize(CloudConfig base,
                             const std::vector<Bytes> &sizes) const
{
    std::vector<CloudConfig> configs(sizes.size(), base);
    for (std::size_t i = 0; i < sizes.size(); ++i)
        configs[i].hdfsSize = sizes[i];
    return evaluateAll(configs);
}

} // namespace doppio::cloud
