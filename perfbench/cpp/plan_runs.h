/**
 * @file
 * The `plan` workload: one PlanningService with default config,
 * driven in a closed loop by a single client.
 *
 * Each runScript() call carries one request whose at_ms lies just
 * after the previous response's t_ms, so at most one query is ever in
 * flight. The seeded script asks every workload of PlanShape once cold
 * (the model is not fitted yet), then a fixed number of warm queries
 * (fresh deadline_s/budget_usd values: a result-cache miss on a fitted
 * model) and of hits (an earlier key again: a result-cache hit). The
 * seed only moves constraint values and order, so the mix of cold,
 * warm and hit queries is the same for every seed.
 */

#ifndef PERFBENCH_PLAN_RUNS_H
#define PERFBENCH_PLAN_RUNS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cli_runs.h"
#include "service/protocol.h"
#include "spans.h"

namespace perfbench {

/** Size of the plan script. */
struct PlanShape
{
    std::vector<std::string> workloads = {"lr-small", "svm", "terasort",
                                          "gatk4", "triangle-count"};
    int warmPerWorkload = 3;
    int hitsPerWorkload = 2;
};

/** One scripted plan query. */
struct PlanQuery
{
    enum class Kind { Cold, Warm, Hit };
    Kind kind = Kind::Cold;
    std::string id;
    std::string workload;
    double deadlineSec = 0.0; //!< > 0: cheapest under this deadline
    double budgetUsd = 0.0;   //!< > 0: fastest under this budget
    /**
     * Service deadline budget, always set explicitly: the script uses
     * 120 000 ms, since a cold query can cost ~38k virtual ms
     * (lr-large), above the service's 20 000 ms default.
     */
    double timeoutMs = 0.0;
};

/** @return "cold" / "warm" / "hit". */
const char *kindName(PlanQuery::Kind kind);

/** The seeded script (see the file comment). */
std::vector<PlanQuery> makePlanScript(std::uint64_t seed,
                                      const PlanShape &shape);

/** @return @p query as one request line arriving at @p atMs. */
std::string planLine(const PlanQuery &query, double atMs);

/** Outcome of one closed-loop session on a fresh service. */
struct SessionResult
{
    std::vector<double> coldMs;
    std::vector<double> warmMs;
    std::vector<double> hitMs;
    /** Wall ms of every query, aligned with the script. */
    std::vector<double> queryMs;
    double wallSeconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> problems;
    /** Response lines, in order (determinism check across sessions). */
    std::vector<std::string> transcript;
    /** Parsed responses, aligned with the script. */
    std::vector<doppio::service::Response> responses;
    doppio::service::ServiceStats stats;
};

/**
 * Run @p script through a fresh default-config PlanningService, one
 * request per runScript() call. Every response must be ok, carry a
 * config, be neither degraded nor model-only, and have the expected
 * cache outcome (miss for cold/warm, hit for hits); anything else is
 * counted failed. With @p tracer, each query gets a "service.query"
 * span whose request id is @p requestBase plus its index.
 */
SessionResult runPlanSession(const std::vector<PlanQuery> &script,
                             Tracer *tracer = nullptr,
                             std::uint64_t requestBase = 0);

/** Layer accounting of one pass over the planner's public stages. */
struct StagePass
{
    double fitSeconds = 0.0;      //!< model::Profiler::fit
    double sweepSeconds = 0.0;    //!< CostOptimizer::evaluatePrefix
    double validateSeconds = 0.0; //!< validation Workload::run
    std::uint64_t sampleRuns = 0;
    std::uint64_t simRuns = 0; //!< sample plus validation runs
    std::uint64_t cellsEvaluated = 0;
    /** Mean |Eq. 1 - simulation| / simulation at the validated config, %. */
    double errorPct = 0.0;
    // Summed over every simulator run of the pass.
    std::uint64_t eventsFired = 0;
    std::uint64_t eventsScheduled = 0;
    double driverSeconds = 0.0;
    double setupSeconds = 0.0;
    double jobSeconds = 0.0;
    /** Registry counters summed (page cache all zero: library defaults). */
    LayerCounters layers;
    std::vector<std::string> problems;
};

/**
 * Time each distinct workload's planner stages once, as the service
 * runs them for that workload's cold query: Profiler::fit on the
 * planner's sample cluster, evaluatePrefix over the coarse size grid
 * and the validation run. Simulator runs go through runDriver(), so
 * the pass also counts events and reads each run's registry. The
 * winning configuration and validated runtime must equal the cold
 * response in @p session.
 */
StagePass runPlanStages(const std::vector<PlanQuery> &script,
                        const SessionResult &session, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_PLAN_RUNS_H
