/**
 * @file
 * Model-driven cloud configuration optimizer (paper §VI).
 *
 * Converts configuration selection into minimizing the discrete
 * multivariate function Cost = f(P, DiskTypes, DiskSize_HDFS,
 * DiskSize_SparkLocal, Time), where Time comes from the fitted Doppio
 * model evaluated against each candidate's disk profile. Three search
 * modes share one grid:
 *
 *   - optimize(): unconstrained cheapest configuration (Fig. 13/15).
 *   - optimizeConstrained(): "cheapest under completion deadline D"
 *     and the dual "fastest under dollar budget B" (the OptEx
 *     formulation), answered by branch-and-bound over the size grid.
 *   - optimizeExhaustive(): the same constrained answer by full
 *     enumeration — the fallback and the CI-diffed reference.
 *
 * Branch-and-bound exploits monotonicity of the modeled surface along
 * the two size axes: a bigger provisioned disk is never slower (the
 * effective-bandwidth tables grow with provisioned size) and is
 * always pricier (GCP bills per GB-month, linearly). Evaluating the
 * two extreme corners of a sub-grid therefore bounds runtime below by
 * the large corner and fleet-$/hour below by the small corner, so
 * whole boxes whose bound cannot beat the incumbent are skipped. The
 * tie-break tracks the canonical enumeration index, which makes the
 * pruned argmin byte-identical to the exhaustive scan's
 * first-cheapest rule. When the surface violates monotonicity between
 * two corners (guarded within a small tolerance) the search abandons
 * pruning and falls back to the exhaustive sweep, counting the
 * fallback, instead of risking a wrong answer.
 *
 * Every evaluation funnels through an LRU memo keyed on the full
 * CloudConfig, so repeated cells across optimize(), the Fig. 13/15
 * sweeps and planning-service queries are never re-modeled.
 */

#ifndef DOPPIO_CLOUD_OPTIMIZER_H
#define DOPPIO_CLOUD_OPTIMIZER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/pricing.h"
#include "common/lru_cache.h"
#include "model/stage_model.h"

namespace doppio::cloud {

/** Model evaluation of one candidate configuration. */
struct Evaluation
{
    CloudConfig config;
    double seconds = 0.0; //!< model-predicted runtime
    double cost = 0.0;    //!< dollars for the job
};

/** A provisioning constraint (OptEx-style, DESIGN.md §16). */
struct Constraint
{
    enum class Kind
    {
        MinCost,               //!< unconstrained cheapest
        CheapestUnderDeadline, //!< min $ s.t. runtime <= deadlineSec
        FastestUnderBudget,    //!< min runtime s.t. $ <= budgetUsd
    };

    Kind kind = Kind::MinCost;
    double deadlineSec = 0.0; //!< CheapestUnderDeadline only
    double budgetUsd = 0.0;   //!< FastestUnderBudget only

    static Constraint minCost();
    static Constraint cheapestUnderDeadline(double deadlineSec);
    static Constraint fastestUnderBudget(double budgetUsd);
};

/**
 * Search accounting. Cumulative on the optimizer (searchStats()) and
 * reported per call in ConstrainedResult::stats as the delta the call
 * produced. cellsEvaluated counts real model evaluations (memo
 * misses); memoHits counts cells served from the memo; cellsPruned
 * counts grid cells branch-and-bound never touched.
 */
struct SearchStats
{
    std::uint64_t cellsTotal = 0;
    std::uint64_t cellsEvaluated = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t cellsPruned = 0;
    std::uint64_t exhaustiveFallbacks = 0;
};

/** Outcome of one constrained search. */
struct ConstrainedResult
{
    /** False when no grid cell satisfies the constraint. */
    bool feasible = false;
    Evaluation best; //!< valid only when feasible
    SearchStats stats;
};

/**
 * Scan @p evals in order and @return the constraint's winner, or
 * nullptr when nothing is feasible. Strict improvement keeps the
 * first-best tie-break of the canonical enumeration order; this is
 * the selection rule both the exhaustive sweep and the planning
 * service use.
 */
const Evaluation *selectBest(const std::vector<Evaluation> &evals,
                             const Constraint &constraint);

/**
 * @return the runtime/cost Pareto frontier of @p evals, sorted by
 * runtime, each entry strictly cheaper than the one before: no
 * evaluation is both faster and cheaper than an entry.
 */
std::vector<Evaluation> paretoFrontier(std::vector<Evaluation> evals);

/** Searches cloud configurations using a fitted application model. */
class CostOptimizer
{
  public:
    /** Search-space definition. */
    struct Options
    {
        int workers = 10;
        /** vCPU choices per worker (paper fixes 16 for predictability,
         *  citing HCloud). */
        std::vector<int> vcpuChoices = {16};
        /** Disk families considered for HDFS. */
        std::vector<CloudDiskType> hdfsTypes = {CloudDiskType::Standard};
        /** Disk families considered for Spark local. */
        std::vector<CloudDiskType> localTypes = {
            CloudDiskType::Standard, CloudDiskType::Ssd};
        /** Candidate provisioned sizes; empty = default geometric grid
         *  100 GB .. 8 TB. */
        std::vector<Bytes> sizeGrid;
        /**
         * Worker threads for optimize()/sweep*(). Candidates are
         * evaluated independently and results committed in input
         * order, so any value returns byte-identical results; 1 (the
         * default) evaluates inline on the calling thread, 0 uses one
         * thread per hardware core.
         */
        int jobs = 1;
        /** Evaluation-memo entries kept hot (LRU); 0 disables. */
        std::size_t memoCapacity = 4096;
        /**
         * Test seam: deterministic adjustment of the modeled runtime,
         * applied before cost is derived (so cost stays price x time
         * consistent). Lets tests manufacture monotonicity violations;
         * both search modes and the memo see the same surface.
         */
        std::function<double(const CloudConfig &, double)> secondsHook;
    };

    CostOptimizer(model::AppModel appModel, GcpPricing pricing,
                  Options options);

    /**
     * Predict runtime and cost for one configuration, through the
     * evaluation memo. Thread-safe; a memo hit is byte-identical to a
     * fresh evaluation (the model is deterministic).
     */
    Evaluation evaluate(const CloudConfig &config) const;

    /**
     * Evaluate every configuration, fanned across Options::jobs
     * threads, results committed in input order (byte-identical for
     * any jobs value).
     */
    std::vector<Evaluation>
    evaluateAll(const std::vector<CloudConfig> &configs) const;

    /** Cheapest configuration (exhaustive reference sweep). */
    Evaluation optimize() const;

    /**
     * Constrained search by branch-and-bound with corner bounds and
     * canonical-index tie-breaks; argmin, cost and runtime are
     * byte-identical to optimizeExhaustive() on the same constraint.
     * Falls back to the exhaustive sweep (counted in
     * stats.exhaustiveFallbacks) when the size grid is not strictly
     * ascending or the surface violates monotonicity.
     */
    ConstrainedResult optimizeConstrained(const Constraint &c) const;

    /** Constrained search by full enumeration (the reference). */
    ConstrainedResult optimizeExhaustive(const Constraint &c) const;

    /**
     * Every configuration in the search space, in the canonical
     * (serial enumeration) order the exhaustive scan uses.
     */
    std::vector<CloudConfig> candidateGrid() const;

    /**
     * Budgeted evaluation hook for the planning service: evaluate
     * @p configs in order on the calling thread, asking @p keepGoing
     * before each cell, and @return the completed prefix. A caller
     * that charges each cell against a deadline budget gets a
     * partial-but-valid result set when the budget expires (the
     * returned evaluations are exact — only coverage shrinks).
     */
    std::vector<Evaluation>
    evaluatePrefix(const std::vector<CloudConfig> &configs,
                   const std::function<bool()> &keepGoing) const;

    /** Cost/runtime curve vs Spark-local size (Fig. 13b / 15). */
    std::vector<Evaluation>
    sweepLocalSize(CloudConfig base,
                   const std::vector<Bytes> &sizes) const;

    /** Cost/runtime curve vs HDFS size (Fig. 13a). */
    std::vector<Evaluation>
    sweepHdfsSize(CloudConfig base,
                  const std::vector<Bytes> &sizes) const;

    /** The default geometric size grid. */
    static std::vector<Bytes> defaultSizeGrid();

    /** Cumulative search counters since construction. */
    SearchStats searchStats() const;

    const Options &options() const { return options_; }
    const GcpPricing &pricing() const { return pricing_; }

  private:
    /**
     * One model evaluation, bypassing the memo. The candidate's disk
     * tables come from PlatformProfile::fromDisks, which profiles each
     * disk once per process.
     */
    Evaluation evaluateUncached(const CloudConfig &config) const;

    /** Packed numeric memo key (describe() rounds sizes; this
     *  doesn't). */
    static std::string memoKey(const CloudConfig &config);

    /** Constrained search by enumeration; no per-call stat framing. */
    ConstrainedResult runExhaustive(const Constraint &c) const;

    /**
     * Branch-and-bound body. @return false on a monotonicity
     * violation (caller falls back); on success fills @p out and
     * accounts pruned cells.
     */
    bool runBranchAndBound(const Constraint &c,
                           ConstrainedResult *out) const;

    model::AppModel app_;
    GcpPricing pricing_;
    Options options_;
    // Behind a unique_ptr so the optimizer stays movable.
    mutable std::unique_ptr<std::mutex> memoMutex_ =
        std::make_unique<std::mutex>();
    /** Null when Options::memoCapacity == 0. */
    mutable std::unique_ptr<common::LruCache<std::string, Evaluation>>
        memo_;
    mutable SearchStats stats_;
};

} // namespace doppio::cloud

#endif // DOPPIO_CLOUD_OPTIMIZER_H
