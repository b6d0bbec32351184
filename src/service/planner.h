/**
 * @file
 * Deadline-budgeted what-if planner (DESIGN.md §14).
 *
 * Answers plan queries — "what cluster/disk configuration for
 * workload W under budget B or deadline D" — by running the paper's
 * pipeline (profile -> fit Eq. 1 -> grid search -> validate) under a
 * per-request deadline budget. One call answers a list of queries
 * sharing one profile; a lone query is a list of one (DESIGN.md §16):
 *
 *   - Profiling charges each sample run's simulated duration against
 *     the budget via Profiler::Options::onSample; an expired budget
 *     aborts the methodology between runs.
 *   - The grid sweep charges a fixed virtual cost per cell, in
 *     canonical cell order; an expired budget yields the completed
 *     prefix — a partial-but-valid answer flagged degraded.
 *   - Validation (re-simulating the winning configuration under the
 *     service's fault spec) is skipped when the budget ran out or the
 *     circuit breaker is open, flagging the answer model-only.
 *
 * Transient slow-path failures (injected via evalFailRate, standing in
 * for a crashed simulator worker) are retried with capped exponential
 * backoff plus deterministic jitter; the backoff sleeps are charged
 * against the same budget, so a flapping slow path degrades into a
 * deadline miss instead of unbounded retry.
 *
 * All costs are virtual milliseconds derived from deterministic
 * quantities (simulated seconds x msPerSimSecond, fixed cellCostMs),
 * never wall clock — a replayed query trace yields a byte-identical
 * response transcript.
 */

#ifndef DOPPIO_SERVICE_PLANNER_H
#define DOPPIO_SERVICE_PLANNER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/optimizer.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/units.h"
#include "faults/fault_spec.h"
#include "service/protocol.h"
#include "workloads/workload.h"

namespace doppio::service {

/**
 * One request's service-side deadline budget, in virtual ms. charge()
 * clamps at the total so a request that exhausts its budget completes
 * exactly at its deadline, never past it — the admission invariant
 * "answered within timeout_ms or flagged degraded" is enforced by
 * construction.
 */
class DeadlineBudget
{
  public:
    explicit DeadlineBudget(double totalMs);

    /** Spend up to @p ms; @return the amount actually charged. */
    double charge(double ms);

    bool exhausted() const { return spentMs_ >= totalMs_; }
    double spentMs() const { return spentMs_; }
    double remainingMs() const { return totalMs_ - spentMs_; }

  private:
    double totalMs_;
    double spentMs_ = 0.0;
};

/** Planner tuning; defaults are the service defaults. */
struct PlannerConfig
{
    /** Slave count of the profiling sample cluster. */
    int sampleNodes = 3;
    /** Fleet size when a query does not name one. */
    int defaultWorkers = 4;
    /**
     * Virtual ms charged per simulated second of a slow-path run. The
     * default makes a full profile-fit-search-validate pass for the
     * small workloads (~570k simulated seconds-of-slow-path for
     * lr-small) land near 11.5k virtual ms — comfortably inside the
     * service's 20s default timeout, with headroom for retries.
     */
    double msPerSimSecond = 0.02;
    /** Virtual ms charged per model grid cell evaluated. */
    double cellCostMs = 5.0;
    /** Transient slow-path failure retries before giving up. */
    int maxRetries = 3;
    double backoffBaseMs = 50.0; //!< first retry backoff
    /** Injected per-attempt transient slow-path failure probability. */
    double evalFailRate = 0.0;
    std::uint64_t seed = 42; //!< failure/jitter draws + sim clusters
    /** Validate the winning configuration with a simulator run. */
    bool validate = true;
    /** Faults injected into every slow-path simulator run. */
    faults::FaultSpec faults;
    /**
     * Persistent model store (DESIGN.md §16): fitted Eq. 1 constants
     * are loaded from this file at construction and saved after every
     * fresh profile, so a restarted service skips the four-sample
     * profiling runs for workloads it has seen. Empty = off.
     */
    std::string modelStorePath;
    /**
     * Threads for the grid sweep (real CPU only — virtual cell
     * accounting is unchanged, so transcripts stay byte-identical for
     * any value). 1 = inline, 0 = one per hardware core.
     */
    int sweepJobs = 1;
};

/** Cumulative planner counters feeding ServiceStats. */
struct PlannerTotals
{
    std::uint64_t retries = 0;
    double backoffMsTotal = 0.0;
    std::uint64_t slowPathRuns = 0;
    double slowPathMsTotal = 0.0;
    std::uint64_t partitionTimeouts = 0;
    std::uint64_t slowPathTaskRetries = 0;
    /** Optimizer evaluation-memo hits across all cached models. */
    std::uint64_t cellsMemoHit = 0;
    /** Cells branch-and-bound pruned across the cached optimizers. */
    std::uint64_t cellsPruned = 0;
    /** Profiling runs skipped via the persistent model store. */
    std::uint64_t modelStoreHits = 0;
};

/** The deadline-budgeted profile/fit/search/validate pipeline. */
class Planner
{
  public:
    explicit Planner(PlannerConfig config);

    /**
     * Would @p req be answerable without profiling (model already
     * cached)? The server consults this before the circuit breaker:
     * open breaker + cached model = model-only answer; open breaker +
     * no model = shed.
     */
    bool hasModel(const Request &req) const;

    /** One plan() call's answers plus its breaker-facing facts. */
    struct Outcome
    {
        /** One response per request, aligned with the input order;
         *  id / t_ms / cache / latency_ms left for the server. */
        std::vector<Response> responses;
        /**
         * Virtual ms the worker slot is occupied: the work done once
         * (model build + the longest member's sweep + deduped
         * validations), not the sum of per-member budget charges —
         * this is where coalescing wins.
         */
        double occupancyMs = 0.0;
        /** Total virtual slow-path cost (breaker EMA); 0 = unused. */
        double slowPathMs = 0.0;
        /** Retries exhausted somewhere — a breaker failure. */
        bool slowPathFailed = false;
    };

    /**
     * Answer @p reqs (one profileKey()), each within its own entry of
     * @p budgets, with at most one model build, one grid sweep and one
     * validation per distinct winner. Each budget is charged and
     * clamped individually, so no member's answer depends on who else
     * rides along. @p allowSlowPath false (breaker open; the model
     * must be cached) skips validation, flagging answers model-only.
     */
    Outcome plan(const std::vector<Request> &reqs,
                 std::vector<DeadlineBudget> &budgets, bool allowSlowPath);

    /**
     * The key queries must share to ride one plan() call: same
     * workload, same fleet size — i.e. the same fitted model and the
     * same candidate grid; only the constraint may differ.
     */
    std::string profileKey(const Request &req) const;

    const PlannerTotals &totals() const { return totals_; }

    /**
     * Service-default disk-size grid: six half-decade points instead
     * of optimize()'s thirteen, trading Fig. 13 curve resolution for
     * interactive-query latency (72 cells with the default type sets).
     */
    static std::vector<Bytes> coarseSizeGrid();

  private:
    int resolveWorkers(const Request &req) const;

    /**
     * One budgeted slow-path simulator run with retry/backoff around
     * injected transient failures. fatal()s with deadlineHit_ or
     * slowPathFailed_ set when it cannot complete.
     */
    spark::AppMetrics runBudgeted(const workloads::Workload &workload,
                                  const cluster::ClusterConfig &cluster,
                                  const spark::SparkConf &conf,
                                  DeadlineBudget &budget);

    /** Profile + fit + build the optimizer for @p req (slow path). */
    cloud::CostOptimizer buildOptimizer(const Request &req,
                                        DeadlineBudget &budget);

    PlannerConfig config_;
    Rng rng_;
    common::LruCache<std::string, cloud::CostOptimizer> cache_;
    PlannerTotals totals_;
    /** Persistent fitted models (loaded/saved via modelStorePath). */
    std::map<std::string, model::AppModel> store_;

    // Abort-cause flags and counters for the current slow-path step:
    // everything below the planner surfaces as FatalError, so plan()
    // discriminates deadline expiry from a dead slow path with its own
    // flags.
    bool deadlineHit_ = false;
    bool slowPathFailed_ = false;
    int reqRetries_ = 0;
    double reqBackoffMs_ = 0.0;
    double reqSlowPathMs_ = 0.0;
};

} // namespace doppio::service

#endif // DOPPIO_SERVICE_PLANNER_H
