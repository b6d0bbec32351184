/**
 * @file
 * Tests for the what-if planning service (src/service/): protocol
 * parsing, the circuit breaker state machine, deadline budgets, and
 * the deterministic virtual-time service loop's robustness behaviors
 * (cache/dedup, load shedding, degradation, retries, breaker
 * fallback, transcript determinism), and the loopback TCP transport.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cloud/gcp_disk.h"
#include "cloud/optimizer.h"
#include "common/logging.h"
#include "model/profiler.h"
#include "service/breaker.h"
#include "service/planner.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads/registry.h"

using namespace doppio;
using service::CircuitBreaker;
using service::PlanningService;
using service::Request;
using service::Response;
using service::ServiceConfig;

namespace {

/** A fast-planning service config: cheap virtual slow path. */
ServiceConfig
testConfig()
{
    ServiceConfig config;
    config.planner.seed = 7;
    return config;
}

const Response &
findResponse(const PlanningService &svc, const std::string &id)
{
    for (const Response &r : svc.responseLog())
        if (r.id == id)
            return r;
    ADD_FAILURE() << "no response with id " << id;
    static Response none;
    return none;
}

} // namespace

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesPlanRequest)
{
    const Request req = Request::parseLine(
        "{\"id\":\"q1\",\"workload\":\"lr-small\",\"mode\":"
        "\"cheapest\",\"deadline_s\":600,\"workers\":6,"
        "\"timeout_ms\":5000,\"at_ms\":42}");
    EXPECT_EQ(req.kind, Request::Kind::Plan);
    EXPECT_EQ(req.id, "q1");
    EXPECT_EQ(req.workload, "lr-small");
    EXPECT_EQ(req.mode, Request::Mode::CheapestUnderDeadline);
    EXPECT_DOUBLE_EQ(req.deadlineSec, 600.0);
    EXPECT_EQ(req.workers, 6);
    EXPECT_DOUBLE_EQ(req.timeoutMs, 5000.0);
    EXPECT_DOUBLE_EQ(req.atMs, 42.0);
}

TEST(Protocol, InfersModeFromConstraint)
{
    EXPECT_EQ(Request::parseLine(
                  "{\"id\":\"a\",\"workload\":\"svm\"}")
                  .mode,
              Request::Mode::MinCost);
    EXPECT_EQ(Request::parseLine("{\"id\":\"a\",\"workload\":\"svm\","
                                 "\"deadline_s\":60}")
                  .mode,
              Request::Mode::CheapestUnderDeadline);
    EXPECT_EQ(Request::parseLine("{\"id\":\"a\",\"workload\":\"svm\","
                                 "\"budget_usd\":10}")
                  .mode,
              Request::Mode::FastestUnderBudget);
    // Both constraints without an explicit mode is ambiguous.
    EXPECT_THROW(
        Request::parseLine("{\"id\":\"a\",\"workload\":\"svm\","
                           "\"deadline_s\":60,\"budget_usd\":10}"),
        FatalError);
}

TEST(Protocol, RejectsMalformedLines)
{
    EXPECT_THROW(Request::parseLine("not json"), FatalError);
    EXPECT_THROW(Request::parseLine("{\"id\":\"a\"}"), FatalError);
    EXPECT_THROW(Request::parseLine(
                     "{\"id\":\"a\",\"workload\":\"x\",\"typo\":1}"),
                 FatalError);
    EXPECT_THROW(Request::parseLine("{\"id\":\"a\",\"id\":\"b\"}"),
                 FatalError);
    EXPECT_THROW(
        Request::parseLine("{\"id\":\"a\",\"workload\":\"x\"} junk"),
        FatalError);
    EXPECT_THROW(Request::parseLine("{\"cmd\":\"reboot\"}"),
                 FatalError);
    // Over the line cap, though it would parse without it.
    EXPECT_THROW(Request::parseLine("{\"cmd\":\"stats\"}" +
                                    std::string(service::kMaxLineBytes,
                                                ' ')),
                 FatalError);
    // Constraint/mode mismatches.
    EXPECT_THROW(Request::parseLine("{\"id\":\"a\",\"workload\":"
                                    "\"x\",\"mode\":\"cheapest\"}"),
                 FatalError);
    EXPECT_THROW(Request::parseLine("{\"id\":\"a\",\"workload\":"
                                    "\"x\",\"mode\":\"fastest\"}"),
                 FatalError);
}

TEST(Protocol, CacheKeyIgnoresIdAndTimes)
{
    const Request a = Request::parseLine(
        "{\"id\":\"a\",\"workload\":\"svm\",\"deadline_s\":60,"
        "\"at_ms\":1}");
    const Request b = Request::parseLine(
        "{\"id\":\"b\",\"workload\":\"svm\",\"deadline_s\":60,"
        "\"at_ms\":999,\"timeout_ms\":5}");
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    const Request c = Request::parseLine(
        "{\"id\":\"c\",\"workload\":\"svm\",\"deadline_s\":61}");
    EXPECT_NE(a.cacheKey(), c.cacheKey());
}

TEST(Protocol, ControlRequests)
{
    EXPECT_EQ(Request::parseLine("{\"cmd\":\"stats\"}").kind,
              Request::Kind::Stats);
    EXPECT_EQ(Request::parseLine("{\"cmd\":\"health\"}").kind,
              Request::Kind::Health);
}

TEST(Protocol, ResponseJsonShape)
{
    Response r;
    r.id = "q";
    r.status = "ok";
    r.haveConfig = true;
    r.config = "cfg";
    r.costUsd = 1.5;
    r.runtimeSec = 10.0;
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"id\":\"q\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"cost_usd\":1.5"), std::string::npos);
    EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
    // Empty optional fields are omitted entirely.
    EXPECT_EQ(json.find("reason"), std::string::npos);
    EXPECT_EQ(json.find("cache"), std::string::npos);
}

// ----------------------------------------------------------------- breaker

TEST(Breaker, TripsOnLatencyEmaAndRecovers)
{
    CircuitBreaker::Config config;
    config.latencyThresholdMs = 100.0;
    config.emaAlpha = 1.0; // last sample only, for a crisp test
    config.cooldownMs = 50.0;
    CircuitBreaker breaker(config);

    EXPECT_TRUE(breaker.allowSlowPath(0.0));
    breaker.recordSlowPath(80.0, 0.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.recordSlowPath(200.0, 1.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 1u);

    // Open: denied until the cooldown elapses.
    EXPECT_FALSE(breaker.allowSlowPath(10.0));
    // Cooldown elapsed: half-open, exactly one probe.
    EXPECT_TRUE(breaker.allowSlowPath(60.0));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_FALSE(breaker.allowSlowPath(61.0));
    // Healthy probe closes the circuit and forgives history.
    breaker.recordSlowPath(50.0, 62.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_DOUBLE_EQ(breaker.emaMs(), 50.0);
}

TEST(Breaker, FailedProbeReopens)
{
    CircuitBreaker::Config config;
    config.latencyThresholdMs = 100.0;
    config.emaAlpha = 1.0;
    config.cooldownMs = 50.0;
    CircuitBreaker breaker(config);
    breaker.recordSlowPath(200.0, 0.0);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_TRUE(breaker.allowSlowPath(60.0));
    breaker.recordSlowPath(300.0, 61.0); // probe over threshold
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 2u);
    // releaseProbe frees an abandoned half-open probe slot.
    EXPECT_TRUE(breaker.allowSlowPath(120.0));
    breaker.releaseProbe();
    EXPECT_TRUE(breaker.allowSlowPath(121.0));
}

TEST(Breaker, TripsOnQueueDepthAndFailure)
{
    CircuitBreaker::Config config;
    config.depthThreshold = 4;
    CircuitBreaker breaker(config);
    breaker.noteQueueDepth(3, 0.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.noteQueueDepth(4, 1.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);

    CircuitBreaker other(CircuitBreaker::Config{});
    other.recordFailure(0.0);
    EXPECT_EQ(other.state(), CircuitBreaker::State::Open);
}

// ------------------------------------------------------------------ budget

TEST(DeadlineBudget, ChargesClampAtTotal)
{
    service::DeadlineBudget budget(100.0);
    EXPECT_DOUBLE_EQ(budget.charge(60.0), 60.0);
    EXPECT_FALSE(budget.exhausted());
    // Overcharge clamps: completion lands exactly at the deadline.
    EXPECT_DOUBLE_EQ(budget.charge(60.0), 40.0);
    EXPECT_TRUE(budget.exhausted());
    EXPECT_DOUBLE_EQ(budget.spentMs(), 100.0);
    EXPECT_DOUBLE_EQ(budget.charge(10.0), 0.0);
    EXPECT_THROW(service::DeadlineBudget(0.0), FatalError);
}

// ----------------------------------------------------------------- service

TEST(Service, ColdQueryThenCacheHitAndDedup)
{
    PlanningService svc(testConfig());
    svc.runScript({
        "# cold query profiles, fits, searches and validates",
        "{\"id\":\"cold\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"twin\",\"workload\":\"lr-small\",\"at_ms\":1}",
        "{\"id\":\"warm\",\"workload\":\"lr-small\",\"at_ms\":50000}",
    });
    const Response &cold = findResponse(svc, "cold");
    EXPECT_EQ(cold.status, "ok");
    EXPECT_EQ(cold.cacheOutcome, "miss");
    EXPECT_TRUE(cold.haveConfig);
    EXPECT_FALSE(cold.degraded);
    EXPECT_FALSE(cold.modelOnly);
    EXPECT_EQ(cold.cellsDone, cold.cellsTotal);
    EXPECT_GT(cold.cellsTotal, 0);

    // Same key in flight: answered from the leader's completion.
    const Response &twin = findResponse(svc, "twin");
    EXPECT_EQ(twin.status, "ok");
    EXPECT_EQ(twin.cacheOutcome, "dedup");
    EXPECT_DOUBLE_EQ(twin.tMs, cold.tMs);

    // Same key later: served from the result cache for free.
    const Response &warm = findResponse(svc, "warm");
    EXPECT_EQ(warm.cacheOutcome, "hit");
    EXPECT_DOUBLE_EQ(warm.latencyMs, 0.0);
    EXPECT_EQ(warm.config, cold.config);

    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.ok, 3u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.dedupJoins, 1u);
}

TEST(Service, OverloadShedsInsteadOfQueueingUnboundedly)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    config.queueCapacity = 2;
    PlanningService svc(config);
    // Five concurrent distinct keys onto one worker with queue cap 2:
    // the overflow must shed, oldest first.
    svc.runScript({
        "{\"id\":\"a\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"b\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"at_ms\":1}",
        "{\"id\":\"c\",\"workload\":\"lr-small\",\"deadline_s\":"
        "91000,\"at_ms\":2}",
        "{\"id\":\"d\",\"workload\":\"lr-small\",\"deadline_s\":"
        "92000,\"at_ms\":3}",
        "{\"id\":\"e\",\"workload\":\"lr-small\",\"deadline_s\":"
        "93000,\"at_ms\":4}",
    });
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_LE(stats.maxQueueDepth, 2u);
    // Drop-oldest: the queue's heads (b, c) were shed to admit d, e.
    EXPECT_EQ(findResponse(svc, "b").status, "shed");
    EXPECT_EQ(findResponse(svc, "b").reason, "queue_full");
    EXPECT_EQ(findResponse(svc, "c").status, "shed");
    EXPECT_EQ(findResponse(svc, "d").status, "ok");
    EXPECT_EQ(findResponse(svc, "e").status, "ok");
}

TEST(Service, RejectNewPolicyShedsTheNewcomer)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    config.queueCapacity = 1;
    config.dropOldest = false;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"a\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"b\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"at_ms\":1}",
        "{\"id\":\"c\",\"workload\":\"lr-small\",\"deadline_s\":"
        "91000,\"at_ms\":2}",
    });
    EXPECT_EQ(findResponse(svc, "b").status, "ok");
    EXPECT_EQ(findResponse(svc, "c").status, "shed");
    EXPECT_EQ(findResponse(svc, "c").reason, "queue_full");
}

TEST(Service, TokenBucketRejectsBeyondBurst)
{
    ServiceConfig config = testConfig();
    config.ratePerSec = 0.001; // effectively no refill within the test
    config.burst = 1.0;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"a\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"b\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"at_ms\":1}",
    });
    EXPECT_EQ(findResponse(svc, "a").status, "ok");
    const Response &b = findResponse(svc, "b");
    EXPECT_EQ(b.status, "rejected");
    EXPECT_EQ(b.reason, "rate_limit");
    EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(Service, ColdQueryWithTinyBudgetDegradesInsteadOfOverrunning)
{
    PlanningService svc(testConfig());
    svc.runScript({
        "{\"id\":\"rush\",\"workload\":\"lr-small\",\"timeout_ms\":"
        "100,\"at_ms\":0}",
    });
    const Response &rush = findResponse(svc, "rush");
    // 100 ms cannot even finish profiling: a flagged-degraded error,
    // emitted exactly at the deadline, never past it.
    EXPECT_EQ(rush.status, "error");
    EXPECT_EQ(rush.reason, "deadline");
    EXPECT_TRUE(rush.degraded);
    EXPECT_LE(rush.latencyMs, 100.0);
}

TEST(Service, WarmQueryWithPartialBudgetReturnsPartialGrid)
{
    PlanningService svc(testConfig());
    svc.runScript({
        "{\"id\":\"prime\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // Model is warm at 50s; 150 ms buys 30 grid cells (5 ms each)
        // and no validation.
        "{\"id\":\"partial\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"timeout_ms\":150,\"at_ms\":50000}",
    });
    const Response &partial = findResponse(svc, "partial");
    EXPECT_EQ(partial.status, "ok");
    EXPECT_TRUE(partial.degraded);
    EXPECT_TRUE(partial.modelOnly);
    EXPECT_TRUE(partial.haveConfig);
    EXPECT_GT(partial.cellsDone, 0);
    EXPECT_LT(partial.cellsDone, partial.cellsTotal);
    EXPECT_LE(partial.latencyMs, 150.0);
}

TEST(Service, OpenBreakerServesModelOnlyAndShedsColdQueries)
{
    ServiceConfig config = testConfig();
    // Any slow path trips the breaker; cooldown far beyond the script.
    config.breaker.latencyThresholdMs = 1.0;
    config.breaker.cooldownMs = 1e9;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"prime\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // Warm model, breaker open: Eq. 1 answer without validation.
        "{\"id\":\"warmish\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"at_ms\":50000}",
        // Cold workload, breaker open: shed, not queued.
        "{\"id\":\"cold\",\"workload\":\"svm\",\"at_ms\":50001}",
    });
    EXPECT_EQ(svc.breaker().state(), CircuitBreaker::State::Open);
    const Response &warmish = findResponse(svc, "warmish");
    EXPECT_EQ(warmish.status, "ok");
    EXPECT_TRUE(warmish.modelOnly);
    EXPECT_TRUE(warmish.haveConfig);
    const Response &cold = findResponse(svc, "cold");
    EXPECT_EQ(cold.status, "shed");
    EXPECT_EQ(cold.reason, "circuit_open");
}

TEST(Service, QueuedRequestPastItsDeadlineExpiresFlaggedDegraded)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    PlanningService svc(config);
    svc.runScript({
        // Occupies the only worker for ~11.8k virtual ms.
        "{\"id\":\"long\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // Queued behind it with a 1s budget: expired at dispatch.
        "{\"id\":\"late\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"timeout_ms\":1000,\"at_ms\":1}",
    });
    const Response &late = findResponse(svc, "late");
    EXPECT_EQ(late.status, "expired");
    EXPECT_TRUE(late.degraded);
    EXPECT_EQ(svc.stats().expired, 1u);
}

TEST(Service, TransientSlowPathFailuresAreRetriedWithBackoff)
{
    ServiceConfig config = testConfig();
    config.planner.evalFailRate = 0.30;
    config.planner.seed = 11;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"flaky\",\"workload\":\"lr-small\",\"timeout_ms\":"
        "60000,\"at_ms\":0}",
    });
    const Response &flaky = findResponse(svc, "flaky");
    EXPECT_EQ(flaky.status, "ok");
    // With a 30% per-attempt failure rate across >= 5 slow-path runs,
    // this seed sees at least one retry; the backoff is charged to the
    // request's own budget.
    EXPECT_GT(flaky.retries, 0);
    EXPECT_GT(flaky.backoffMs, 0.0);
    EXPECT_EQ(svc.stats().retries,
              static_cast<std::uint64_t>(flaky.retries));
}

TEST(Service, ExhaustedRetriesFailTheSlowPathAndTripTheBreaker)
{
    ServiceConfig config = testConfig();
    config.planner.evalFailRate = 0.999;
    config.planner.maxRetries = 1;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"doomed\",\"workload\":\"lr-small\",\"at_ms\":0}",
    });
    const Response &doomed = findResponse(svc, "doomed");
    EXPECT_EQ(doomed.status, "error");
    EXPECT_EQ(doomed.reason, "slow_path_failed");
    EXPECT_EQ(doomed.retries, 1);
    EXPECT_EQ(svc.breaker().state(), CircuitBreaker::State::Open);
}

TEST(Service, InfeasibleConstraintIsAnError)
{
    PlanningService svc(testConfig());
    svc.runScript({
        "{\"id\":\"prime\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // No configuration runs lr-small in one second.
        "{\"id\":\"impossible\",\"workload\":\"lr-small\","
        "\"deadline_s\":1,\"at_ms\":50000}",
    });
    const Response &impossible = findResponse(svc, "impossible");
    EXPECT_EQ(impossible.status, "error");
    EXPECT_EQ(impossible.reason, "infeasible");
}

TEST(Service, UnknownWorkloadAndBadJsonAreErrors)
{
    PlanningService svc(testConfig());
    const std::vector<std::string> transcript = svc.runScript({
        "{\"id\":\"who\",\"workload\":\"no-such-app\",\"at_ms\":0}",
        "this is not json",
    });
    EXPECT_EQ(findResponse(svc, "who").reason, "unknown_workload");
    EXPECT_EQ(svc.stats().errors, 2u);
    ASSERT_EQ(transcript.size(), 2u);
    EXPECT_NE(transcript[0].find("bad_request"), std::string::npos);
}

TEST(Service, ScriptReplayIsByteIdentical)
{
    const service::Script script = {
        "{\"id\":\"a\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"b\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"at_ms\":5}",
        "{\"id\":\"c\",\"workload\":\"lr-small\",\"at_ms\":30000}",
        "{\"cmd\":\"stats\",\"at_ms\":40000}",
    };
    PlanningService first(testConfig());
    PlanningService second(testConfig());
    EXPECT_EQ(first.runScript(script), second.runScript(script));
}

TEST(Service, AnswersMatchThePipelineRebuiltFromLibraryParts)
{
    // The planner's oracle: the paper's pipeline recomputed with no
    // planner code — fit on the sample cluster, sweep the service
    // grid, select, and validate the winner on its cloud cluster. The
    // deadline rules out the min-cost cell: two different winners.
    PlanningService svc(testConfig());
    svc.runScript({
        "{\"id\":\"cold\",\"workload\":\"lr-small\",\"at_ms\":0}",
        "{\"id\":\"warm\",\"workload\":\"lr-small\",\"deadline_s\":"
        "16000,\"at_ms\":50000}",
    });

    const service::PlannerConfig planner = testConfig().planner;
    const auto workload = workloads::makeWorkload("lr-small");
    cluster::ClusterConfig sampleCluster;
    sampleCluster.numSlaves = planner.sampleNodes;
    sampleCluster.seed = planner.seed;
    model::Profiler::Options options;
    options.sampleNodes = planner.sampleNodes;
    model::Profiler profiler(workload->runner(), sampleCluster,
                             spark::SparkConf{}, options);
    cloud::CostOptimizer::Options search;
    search.workers = planner.defaultWorkers;
    search.sizeGrid = service::Planner::coarseSizeGrid();
    const cloud::CostOptimizer optimizer(profiler.fit(workload->name()),
                                         cloud::GcpPricing{}, search);
    const std::vector<cloud::Evaluation> evals = optimizer.evaluatePrefix(
        optimizer.candidateGrid(), [] { return true; });

    const auto expectAnswer = [&](const char *id,
                                  const cloud::Constraint &constraint) {
        const cloud::Evaluation *best = cloud::selectBest(evals, constraint);
        ASSERT_NE(best, nullptr) << id;
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
        const double runtime = workload->run(cluster, conf).seconds();

        const Response &r = findResponse(svc, id);
        EXPECT_EQ(r.status, "ok") << id;
        EXPECT_FALSE(r.degraded) << id;
        EXPECT_FALSE(r.modelOnly) << id;
        EXPECT_EQ(r.config, best->config.describe()) << id;
        EXPECT_EQ(r.runtimeSec, runtime) << id;
        EXPECT_EQ(r.costUsd, cloud::jobCost(best->config,
                                            optimizer.pricing(), runtime))
            << id;
        EXPECT_EQ(r.cellsDone, static_cast<int>(evals.size())) << id;
    };
    expectAnswer("cold", cloud::Constraint::minCost());
    expectAnswer("warm", cloud::Constraint::cheapestUnderDeadline(16000));
    EXPECT_NE(findResponse(svc, "cold").config,
              findResponse(svc, "warm").config);
}

// ------------------------------------------------- cold-query coalescing

namespace {

/** One cold leader occupying the single worker, then three queued
 *  same-profile queries with distinct constraints (distinct cache
 *  keys, so none dedups). */
const service::Script kBurstScript = {
    "{\"id\":\"lead\",\"workload\":\"lr-small\",\"at_ms\":0}",
    "{\"id\":\"b\",\"workload\":\"lr-small\",\"deadline_s\":90000,"
    "\"at_ms\":1}",
    "{\"id\":\"c\",\"workload\":\"lr-small\",\"deadline_s\":91000,"
    "\"at_ms\":2}",
    "{\"id\":\"d\",\"workload\":\"lr-small\",\"deadline_s\":92000,"
    "\"at_ms\":3}",
};

} // namespace

TEST(Batching, QueuedSameProfileQueriesRideOneSweep)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    PlanningService svc(config);
    svc.runScript(kBurstScript);

    for (const char *id : {"lead", "b", "c", "d"}) {
        const Response &r = findResponse(svc, id);
        EXPECT_EQ(r.status, "ok") << id;
        EXPECT_TRUE(r.haveConfig) << id;
        EXPECT_EQ(r.cellsDone, r.cellsTotal) << id;
    }
    // b, c, d drained together as one width-3 batch; the batch
    // answers at one completion instant.
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchedQueries, 3u);
    EXPECT_DOUBLE_EQ(findResponse(svc, "b").tMs,
                     findResponse(svc, "c").tMs);
    EXPECT_DOUBLE_EQ(findResponse(svc, "c").tMs,
                     findResponse(svc, "d").tMs);
    // The shared sweep reuses the leader's 72 evaluated cells via the
    // optimizer memo instead of re-modeling them for every member.
    EXPECT_GT(stats.cellsMemoHit, 0u);
    // Three members, 72 cells each would be 216 solo sweep charges but
    // only 72 cells of worker occupancy; the batch completion must
    // land well before three sequential sweeps would.
    const std::string json = svc.statsJson();
    EXPECT_NE(json.find("\"batches\":1"), std::string::npos);
    EXPECT_NE(json.find("\"batched_queries\":3"), std::string::npos);
}

TEST(Batching, BatchMaxOneDisablesCoalescing)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    config.batchMax = 1;
    PlanningService svc(config);
    svc.runScript(kBurstScript);
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.batchedQueries, 0u);
    for (const char *id : {"lead", "b", "c", "d"})
        EXPECT_EQ(findResponse(svc, id).status, "ok") << id;
    // Sequential sweeps answer at three distinct instants.
    EXPECT_LT(findResponse(svc, "b").tMs, findResponse(svc, "c").tMs);
    EXPECT_LT(findResponse(svc, "c").tMs, findResponse(svc, "d").tMs);
}

TEST(Batching, BatchedAnswersMatchSequentialAnswers)
{
    // Coalescing is a latency optimization, not a different planner:
    // each member's chosen configuration, cost and runtime must equal
    // what the unbatched service computes for the same query.
    ServiceConfig batched = testConfig();
    batched.workers = 1;
    ServiceConfig solo = batched;
    solo.batchMax = 1;
    PlanningService a(batched);
    PlanningService b(solo);
    a.runScript(kBurstScript);
    b.runScript(kBurstScript);
    for (const char *id : {"lead", "b", "c", "d"}) {
        const Response &x = findResponse(a, id);
        const Response &y = findResponse(b, id);
        EXPECT_EQ(x.config, y.config) << id;
        EXPECT_EQ(x.costUsd, y.costUsd) << id;
        EXPECT_EQ(x.runtimeSec, y.runtimeSec) << id;
        EXPECT_EQ(x.cellsDone, y.cellsDone) << id;
    }
}

TEST(Batching, ReplayIsByteIdentical)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    PlanningService first(config);
    PlanningService second(config);
    EXPECT_EQ(first.runScript(kBurstScript),
              second.runScript(kBurstScript));
}

TEST(Batching, MemberBudgetsAreEnforcedIndividually)
{
    ServiceConfig config = testConfig();
    config.workers = 1;
    PlanningService svc(config);
    svc.runScript({
        // Cold leader holds the worker ~11.8k virtual ms.
        "{\"id\":\"lead\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // Queued pair shares the batch; "poor" has only ~200 ms of
        // budget left at dispatch, "rich" is unconstrained.
        "{\"id\":\"poor\",\"workload\":\"lr-small\",\"deadline_s\":"
        "90000,\"timeout_ms\":12000,\"at_ms\":1}",
        "{\"id\":\"rich\",\"workload\":\"lr-small\",\"deadline_s\":"
        "91000,\"at_ms\":2}",
    });
    EXPECT_EQ(svc.stats().batches, 1u);
    const Response &poor = findResponse(svc, "poor");
    const Response &rich = findResponse(svc, "rich");
    // The rich member got the full grid and validation.
    EXPECT_EQ(rich.status, "ok");
    EXPECT_FALSE(rich.degraded);
    EXPECT_FALSE(rich.modelOnly);
    EXPECT_EQ(rich.cellsDone, rich.cellsTotal);
    // The poor member was charged only its own remaining budget: a
    // partial prefix, no validation, flagged degraded — riding the
    // batch never let it spend the rich member's budget.
    EXPECT_EQ(poor.status, "ok");
    EXPECT_TRUE(poor.degraded);
    EXPECT_TRUE(poor.modelOnly);
    EXPECT_GT(poor.cellsDone, 0);
    EXPECT_LT(poor.cellsDone, poor.cellsTotal);
    EXPECT_LT(poor.cellsDone, rich.cellsDone);
}

TEST(Batching, BatchOfClampedMembersEndsAtTheLongestSweepersDeadline)
{
    // Every member runs out mid-sweep: the worker is held for the
    // clamped charges of the member that swept longest, so it is
    // answered within its own timeout, not a partial cell past it.
    ServiceConfig config = testConfig();
    config.workers = 1;
    config.planner.validate = false;
    PlanningService svc(config);
    svc.runScript({
        "{\"id\":\"prime\",\"workload\":\"lr-small\",\"at_ms\":0}",
        // A warm lead holds the worker for 72 cells x 5 ms = 360 ms.
        "{\"id\":\"lead\",\"workload\":\"lr-small\",\"deadline_s\":"
        "50000,\"at_ms\":50000}",
        // At dispatch (50 360) m1 has 152.5 ms left and m2 97.3 ms:
        // they run out after 31 and 20 cells.
        "{\"id\":\"m1\",\"workload\":\"lr-small\",\"deadline_s\":"
        "50001,\"timeout_ms\":511.5,\"at_ms\":50001}",
        "{\"id\":\"m2\",\"workload\":\"lr-small\",\"deadline_s\":"
        "50002,\"timeout_ms\":455.3,\"at_ms\":50002}",
    });
    EXPECT_EQ(svc.stats().batches, 1u);
    const Response &m1 = findResponse(svc, "m1");
    const Response &m2 = findResponse(svc, "m2");
    EXPECT_EQ(m1.cellsDone, 31);
    EXPECT_EQ(m2.cellsDone, 20);
    EXPECT_LE(m1.latencyMs, 511.5);
    EXPECT_DOUBLE_EQ(m1.tMs, 50512.5);
    EXPECT_DOUBLE_EQ(m2.tMs, m1.tMs);
}

// --------------------------------------------------------- TCP transport

namespace {

/** A free loopback port: bind port 0, read the choice back, release. */
int
freeLoopbackPort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
            0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0;
    ::close(fd);
    return ok ? ntohs(addr.sin_port) : 0;
}

/** One client connection. Its receive timeout turns a server hang
 *  into a test failure instead of a blocked test run. */
class TcpClient
{
  public:
    explicit TcpClient(int port)
    {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        const timeval timeout{120, 0};
        // The server thread may not be listening yet: retry for ~5 s.
        for (int attempt = 0; attempt < 500 && fd_ < 0; ++attempt) {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout));
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0) {
                ::close(fd_);
                fd_ = -1;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        }
    }
    ~TcpClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    bool connected() const { return fd_ >= 0; }

    void
    send(const std::string &data)
    {
        for (std::size_t sent = 0; sent < data.size();) {
            const ssize_t n = ::send(fd_, data.data() + sent,
                                     data.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            sent += static_cast<std::size_t>(n);
        }
    }

    /** The next response line, or "" on end of stream or timeout. */
    std::string
    readLine()
    {
        std::size_t eol;
        while ((eol = buffer_.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
    }

    /** True when the server closed the stream with nothing unread. */
    bool
    closedByServer()
    {
        char byte = 0;
        return buffer_.empty() && ::recv(fd_, &byte, 1, 0) == 0;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** serveTcp on @p port, on its own thread, until it has answered
 *  @p maxRequests lines. */
class LoopbackServer
{
  public:
    LoopbackServer(PlanningService &svc, int port,
                   std::uint64_t maxRequests)
        : port_(port), maxRequests_(maxRequests),
          served_(std::async(std::launch::async, [&svc, port, maxRequests] {
              return service::serveTcp(svc, port, maxRequests);
          }))
    {
    }
    ~LoopbackServer() { unblock(); }
    LoopbackServer(const LoopbackServer &) = delete;
    LoopbackServer &operator=(const LoopbackServer &) = delete;

    /** Wait for serveTcp to return; @return the lines it answered. */
    std::uint64_t
    join()
    {
        unblock();
        return served_.get();
    }

  private:
    /** A failed test may leave lines unsent: after a grace period,
     *  send them, so serveTcp returns and its thread can be joined. */
    void
    unblock()
    {
        if (!served_.valid() || served_.wait_for(std::chrono::seconds(
                                    10)) == std::future_status::ready)
            return;
        TcpClient filler(port_);
        for (std::uint64_t i = 0; i < maxRequests_; ++i)
            filler.send("{\"cmd\":\"health\"}\n");
    }

    int port_;
    std::uint64_t maxRequests_;
    std::future<std::uint64_t> served_;
};

/** @p line with its clock-derived fields (t_ms, breaker_*_ms) blanked. */
std::string
withoutClock(std::string line)
{
    for (const std::string key :
         {"\"t_ms\":", "\"breaker_closed_ms\":", "\"breaker_open_ms\":",
          "\"breaker_half_open_ms\":"}) {
        const std::size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        const std::size_t from = at + key.size();
        line.replace(from, line.find_first_of(",}", from) - from, "_");
    }
    return line;
}

} // namespace

TEST(ServiceTcp, AnswersMatchTheEventLoopButForClockFields)
{
    const std::vector<std::string> lines = {
        "{\"id\":\"cold\",\"workload\":\"lr-small\"}",
        "{\"id\":\"again\",\"workload\":\"lr-small\"}",
        "this is not json",
        "{\"cmd\":\"stats\"}",
    };
    PlanningService reference(testConfig());
    std::vector<std::string> want;
    for (const std::string &line : lines) {
        const std::vector<std::string> out = reference.answerLine(line, 0.0);
        ASSERT_EQ(out.size(), 1u) << line;
        want.push_back(out.front());
    }

    const int port = freeLoopbackPort();
    ASSERT_NE(port, 0);
    PlanningService svc(testConfig());
    LoopbackServer server(svc, port, lines.size());
    {
        TcpClient client(port);
        ASSERT_TRUE(client.connected());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            client.send(lines[i] + "\n");
            EXPECT_EQ(withoutClock(client.readLine()),
                      withoutClock(want[i]))
                << lines[i];
        }
    }
    EXPECT_EQ(server.join(), lines.size());
    const std::vector<Response> &log = svc.responseLog();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].cacheOutcome, "miss");
    EXPECT_EQ(log[1].cacheOutcome, "hit");
    EXPECT_EQ(log[2].reason, "bad_request");
}

TEST(ServiceTcp, OversizeLineIsRejectedAndClosesOnlyItsConnection)
{
    const int port = freeLoopbackPort();
    ASSERT_NE(port, 0);
    PlanningService svc(testConfig());
    LoopbackServer server(svc, port, 2);
    {
        TcpClient hostile(port);
        ASSERT_TRUE(hostile.connected());
        // One byte past the cap, no newline. The server reads every
        // byte before it answers, so its close is a clean end of
        // stream rather than a reset.
        hostile.send(std::string(service::kMaxLineBytes + 1, 'x'));
        EXPECT_NE(hostile.readLine().find("\"reason\":\"bad_request\""),
                  std::string::npos);
        EXPECT_TRUE(hostile.closedByServer());
    }
    {
        TcpClient next(port);
        ASSERT_TRUE(next.connected());
        next.send("{\"cmd\":\"health\"}\n");
        EXPECT_NE(next.readLine().find("\"status\":\"healthy\""),
                  std::string::npos);
    }
    EXPECT_EQ(server.join(), 2u);
}

// ----------------------------------------------------------- model store

TEST(ModelStoreService, RestartSkipsProfilingAndAnswersIdentically)
{
    const std::string path =
        testing::TempDir() + "service_model_store.txt";
    std::remove(path.c_str());
    const service::Script script = {
        "{\"id\":\"q\",\"workload\":\"lr-small\",\"at_ms\":0}",
    };

    ServiceConfig config = testConfig();
    config.planner.modelStorePath = path;
    PlanningService first(config);
    first.runScript(script);
    EXPECT_EQ(first.stats().modelStoreHits, 0u);
    const Response &cold = findResponse(first, "q");
    ASSERT_EQ(cold.status, "ok");

    // A "restarted" service: fresh instance, same store file. The
    // four-sample profiling phase is skipped, and the stored constants
    // reproduce the cold answer bit for bit.
    PlanningService second(config);
    second.runScript(script);
    EXPECT_EQ(second.stats().modelStoreHits, 1u);
    const Response &warm = findResponse(second, "q");
    EXPECT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.config, cold.config);
    EXPECT_EQ(warm.costUsd, cold.costUsd);
    EXPECT_EQ(warm.runtimeSec, cold.runtimeSec);
    EXPECT_EQ(warm.cellsDone, cold.cellsDone);
    // Skipped profiling = less budget spent = a faster answer.
    EXPECT_LT(warm.latencyMs, cold.latencyMs);
    EXPECT_EQ(second.stats().slowPathRuns, 1u); // validation only
    std::remove(path.c_str());
}

TEST(ModelStoreService, MangledStoreFailsLoudlyAtStartup)
{
    const std::string path =
        testing::TempDir() + "service_model_store_bad.txt";
    {
        std::ofstream out(path);
        out << "doppio-model-store v1\nmodel oops\n";
    }
    ServiceConfig config = testConfig();
    config.planner.modelStorePath = path;
    EXPECT_THROW(PlanningService svc(config), doppio::FatalError);
    std::remove(path.c_str());
}
