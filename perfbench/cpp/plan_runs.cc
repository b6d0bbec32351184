#include "plan_runs.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "cloud/gcp_disk.h"
#include "cloud/optimizer.h"
#include "cloud/pricing.h"
#include "common/random.h"
#include "model/profiler.h"
#include "service/planner.h"
#include "service/server.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace doppio;

namespace {

/** Virtual ms between a response and the client's next request. */
constexpr double kThinkMs = 1.0;

/** Service deadline budget of every scripted query (PlanQuery). */
constexpr double kTimeoutMs = 120000.0;

/**
 * Validated runtime and cost of each workload's min-cost answer at the
 * default fleet size. Warm deadlines are 1.5x to 4x the runtime, which
 * leaves room for the model's error against the simulation, so every
 * constraint is feasible.
 */
struct PlanScale
{
    const char *workload;
    double minCostSeconds;
    double minCostUsd;
};

constexpr PlanScale kScales[] = {
    {"lr-small", 21235.1, 15.9174}, {"svm", 712.924, 0.691734},
    {"terasort", 6251.6, 4.44818},  {"gatk4", 4333.58, 3.09994},
    {"triangle-count", 1803.82, 1.51683},
};

PlanScale
scaleFor(const std::string &workload)
{
    for (const PlanScale &scale : kScales) {
        if (workload == scale.workload)
            return scale;
    }
    return {"", 1e7, 1e4};
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

cloud::Constraint
constraintOf(const PlanQuery &query)
{
    if (query.deadlineSec > 0.0)
        return cloud::Constraint::cheapestUnderDeadline(query.deadlineSec);
    if (query.budgetUsd > 0.0)
        return cloud::Constraint::fastestUnderBudget(query.budgetUsd);
    return cloud::Constraint::minCost();
}

} // namespace

const char *
kindName(PlanQuery::Kind kind)
{
    switch (kind) {
    case PlanQuery::Kind::Cold:
        return "cold";
    case PlanQuery::Kind::Warm:
        return "warm";
    case PlanQuery::Kind::Hit:
        return "hit";
    }
    return "?";
}

std::vector<PlanQuery>
makePlanScript(std::uint64_t seed, const PlanShape &shape)
{
    Rng rng(seed);
    // Per workload: its cold query, then warm and hit queries in a
    // seeded order; a hit repeats a uniformly drawn earlier key.
    std::vector<std::vector<PlanQuery>> perWorkload;
    for (const std::string &workload : shape.workloads) {
        std::vector<PlanQuery> seq;
        PlanQuery cold;
        cold.kind = PlanQuery::Kind::Cold;
        cold.workload = workload;
        cold.timeoutMs = kTimeoutMs;
        seq.push_back(cold);

        int warmLeft = shape.warmPerWorkload;
        int hitsLeft = shape.hitsPerWorkload;
        const PlanScale scale = scaleFor(workload);
        while (warmLeft + hitsLeft > 0) {
            const bool warm =
                rng.uniformInt(static_cast<std::uint64_t>(warmLeft +
                                                          hitsLeft)) <
                static_cast<std::uint64_t>(warmLeft);
            PlanQuery query;
            if (warm) {
                --warmLeft;
                query.kind = PlanQuery::Kind::Warm;
                query.workload = workload;
                query.timeoutMs = kTimeoutMs;
                // Alternate modes so every seed validates the same
                // configurations: a deadline above the min-cost runtime
                // keeps the min-cost answer, a budget far above the
                // min cost buys the fastest configuration.
                if ((shape.warmPerWorkload - warmLeft) % 2 == 1)
                    query.deadlineSec =
                        std::round(scale.minCostSeconds *
                                   rng.uniform(1.5, 4.0));
                else
                    query.budgetUsd =
                        std::round(100.0 * scale.minCostUsd *
                                   rng.uniform(50.0, 100.0)) /
                        100.0;
            } else {
                --hitsLeft;
                query = seq[rng.uniformInt(seq.size())];
                query.kind = PlanQuery::Kind::Hit;
            }
            seq.push_back(query);
        }
        perWorkload.push_back(std::move(seq));
    }

    // Round-robin across workloads: every cold query comes first.
    std::vector<PlanQuery> script;
    for (std::size_t round = 0;; ++round) {
        bool any = false;
        for (std::vector<PlanQuery> &seq : perWorkload) {
            if (round >= seq.size())
                continue;
            any = true;
            PlanQuery query = seq[round];
            query.id = "q" + std::to_string(script.size());
            script.push_back(std::move(query));
        }
        if (!any)
            break;
    }
    return script;
}

std::string
planLine(const PlanQuery &query, double atMs)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"id\":\"" << query.id << "\",\"workload\":\""
       << query.workload << "\"";
    if (query.deadlineSec > 0.0)
        os << ",\"deadline_s\":" << query.deadlineSec;
    if (query.budgetUsd > 0.0)
        os << ",\"budget_usd\":" << query.budgetUsd;
    os << ",\"timeout_ms\":" << query.timeoutMs << ",\"at_ms\":" << atMs
       << "}";
    return os.str();
}

SessionResult
runPlanSession(const std::vector<PlanQuery> &script, Tracer *tracer,
               std::uint64_t requestBase)
{
    SessionResult out;
    service::PlanningService svc{service::ServiceConfig{}};
    double atMs = 0.0;
    const auto sessionStart = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < script.size(); ++i) {
        const PlanQuery &query = script[i];
        const service::Script request = {planLine(query, atMs)};
        const std::size_t logBefore = svc.responseLog().size();

        const auto start = std::chrono::steady_clock::now();
        std::vector<std::string> lines;
        if (tracer != nullptr) {
            Tracer::Scope span(*tracer, "service.query", requestBase + i);
            lines = svc.runScript(request);
        } else {
            lines = svc.runScript(request);
        }
        const double ms = secondsSince(start) * 1e3;
        out.queryMs.push_back(ms);

        ++out.attempted;
        std::string problem;
        service::Response resp;
        if (svc.responseLog().size() != logBefore + 1 || lines.size() != 1) {
            problem = "expected exactly one response";
        } else {
            resp = svc.responseLog().back();
            const char *want =
                query.kind == PlanQuery::Kind::Hit ? "hit" : "miss";
            if (resp.status != "ok")
                problem = "status " + resp.status + " (" + resp.reason + ")";
            else if (!resp.haveConfig)
                problem = "no config";
            else if (resp.degraded)
                problem = "degraded";
            else if (resp.modelOnly)
                problem = "model-only";
            else if (resp.cacheOutcome != want)
                problem = "cache " + resp.cacheOutcome + ", expected " + want;
            atMs = resp.tMs + kThinkMs;
            out.transcript.push_back(lines.front());
        }
        out.responses.push_back(resp);
        if (!problem.empty()) {
            ++out.failed;
            out.problems.push_back(query.id + " (" + kindName(query.kind) +
                                   " " + query.workload + "): " + problem);
            continue;
        }
        switch (query.kind) {
        case PlanQuery::Kind::Cold:
            out.coldMs.push_back(ms);
            break;
        case PlanQuery::Kind::Warm:
            out.warmMs.push_back(ms);
            break;
        case PlanQuery::Kind::Hit:
            out.hitMs.push_back(ms);
            break;
        }
    }
    out.wallSeconds = secondsSince(sessionStart);
    out.stats = svc.stats();
    return out;
}

StagePass
runPlanStages(const std::vector<PlanQuery> &script,
              const SessionResult &session, Tracer &tracer)
{
    StagePass pass;
    const service::PlannerConfig planner;
    double errorSum = 0.0;
    int errorCount = 0;

    // Count one driver run's layer work into the pass.
    const auto account = [&](const DriverRun &run,
                             const telemetry::Registry &registry) {
        ++pass.simRuns;
        pass.eventsFired += run.eventsFired;
        pass.eventsScheduled += run.eventsScheduled;
        pass.layers += layerCounters(registry);
    };

    for (std::size_t i = 0; i < script.size(); ++i) {
        const PlanQuery &query = script[i];
        if (query.kind != PlanQuery::Kind::Cold)
            continue;
        // Request ids above any session's, one per workload.
        const std::uint64_t request = 1000000 + i;
        const auto workload = workloads::makeWorkload(query.workload);

        // Profile on the planner's sample cluster (Planner::buildEntry).
        cluster::ClusterConfig sampleCluster;
        sampleCluster.numSlaves = planner.sampleNodes;
        sampleCluster.seed = planner.seed;
        model::Profiler::Options options;
        options.sampleNodes = planner.sampleNodes;
        model::WorkloadRunner runner =
            [&](const cluster::ClusterConfig &config,
                const spark::SparkConf &conf) {
                telemetry::Registry registry;
                DriverRun run =
                    runDriver(*workload, config, conf, tracer, request,
                              &registry);
                account(run, registry);
                ++pass.sampleRuns;
                return run.metrics;
            };
        model::Profiler profiler(std::move(runner), sampleCluster,
                                 spark::SparkConf{}, options);
        model::AppModel app;
        {
            Tracer::Scope span(tracer, "model.fit", request);
            app = profiler.fit(workload->name());
        }

        cloud::CostOptimizer::Options search;
        search.workers = planner.defaultWorkers;
        search.sizeGrid = service::Planner::coarseSizeGrid();
        search.jobs = planner.sweepJobs;
        cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                       std::move(search));
        std::vector<cloud::Evaluation> evals;
        {
            Tracer::Scope span(tracer, "cloud.sweep", request);
            evals = optimizer.evaluatePrefix(optimizer.candidateGrid(),
                                             [] { return true; });
        }
        pass.cellsEvaluated += optimizer.searchStats().cellsEvaluated;
        const cloud::Evaluation *best =
            cloud::selectBest(evals, constraintOf(query));
        if (best == nullptr) {
            pass.problems.push_back(query.workload + ": no feasible cell");
            continue;
        }

        // Validation run of the winner (Planner::plan).
        cluster::ClusterConfig cluster;
        cluster.numSlaves = best->config.workers;
        cluster.node.cores = best->config.vcpus;
        cluster.node.hdfsDisk = cloud::makeCloudDiskParams(
            best->config.hdfsType, best->config.hdfsSize);
        cluster.node.localDisk = cloud::makeCloudDiskParams(
            best->config.localType, best->config.localSize);
        cluster.seed = planner.seed;
        spark::SparkConf conf;
        conf.executorCores = best->config.vcpus;
        DriverRun validation;
        {
            Tracer::Scope span(tracer, "service.validate", request);
            telemetry::Registry registry;
            validation =
                runDriver(*workload, cluster, conf, tracer, request, &registry);
            account(validation, registry);
        }
        const double simSeconds = validation.metrics.seconds();
        errorSum += std::fabs(best->seconds - simSeconds) / simSeconds * 100.0;
        ++errorCount;

        // The pass must reproduce the service's cold answer.
        if (i < session.responses.size()) {
            const service::Response &resp = session.responses[i];
            if (resp.config != best->config.describe() ||
                resp.runtimeSec != simSeconds)
                pass.problems.push_back(
                    query.workload + ": stage pass answered " +
                    best->config.describe() + " but the service answered " +
                    resp.config);
        }
    }

    pass.fitSeconds = tracer.totalSeconds("model.fit");
    pass.sweepSeconds = tracer.totalSeconds("cloud.sweep");
    pass.validateSeconds = tracer.totalSeconds("service.validate");
    pass.driverSeconds = tracer.totalSeconds("workloads.run");
    pass.setupSeconds = tracer.totalSeconds("workloads.setup");
    pass.jobSeconds = tracer.totalSeconds("spark.job");
    pass.errorPct = errorCount > 0 ? errorSum / errorCount : 0.0;
    return pass;
}

} // namespace perfbench
