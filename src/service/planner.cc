#include "service/planner.h"

#include <algorithm>

#include "cloud/gcp_disk.h"
#include "common/logging.h"
#include "model/model_store.h"
#include "model/profiler.h"
#include "workloads/registry.h"

namespace doppio::service {

namespace {

/** Fitted models kept hot (LRU), keyed by profileKey(). */
constexpr std::size_t kModelCacheCapacity = 8;
constexpr double kBackoffMaxMs = 1000.0; //!< exponential backoff cap
constexpr double kBackoffJitter = 0.2;   //!< uniform jitter fraction on top

/** Map a plan query's mode onto the optimizer's constraint. */
cloud::Constraint
constraintFor(const Request &req)
{
    switch (req.mode) {
    case Request::Mode::MinCost:
        return cloud::Constraint::minCost();
    case Request::Mode::CheapestUnderDeadline:
        return cloud::Constraint::cheapestUnderDeadline(req.deadlineSec);
    case Request::Mode::FastestUnderBudget:
        return cloud::Constraint::fastestUnderBudget(req.budgetUsd);
    }
    return cloud::Constraint::minCost();
}

} // namespace

DeadlineBudget::DeadlineBudget(double totalMs) : totalMs_(totalMs)
{
    if (totalMs <= 0.0)
        fatal("DeadlineBudget: totalMs must be positive (got %g)",
              totalMs);
}

double
DeadlineBudget::charge(double ms)
{
    if (ms < 0.0)
        panic("DeadlineBudget: negative charge %g", ms);
    const double charged = std::min(ms, remainingMs());
    spentMs_ += charged;
    return charged;
}

Planner::Planner(PlannerConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      cache_(kModelCacheCapacity)
{
    if (config_.sampleNodes < 1)
        fatal("Planner: sampleNodes must be positive");
    if (config_.defaultWorkers < 1)
        fatal("Planner: defaultWorkers must be positive");
    if (config_.msPerSimSecond <= 0.0)
        fatal("Planner: msPerSimSecond must be positive");
    if (config_.cellCostMs <= 0.0)
        fatal("Planner: cellCostMs must be positive");
    if (config_.maxRetries < 0)
        fatal("Planner: maxRetries must be non-negative");
    if (config_.evalFailRate < 0.0 || config_.evalFailRate >= 1.0)
        fatal("Planner: evalFailRate must be in [0, 1)");
    if (config_.backoffBaseMs < 0.0)
        fatal("Planner: backoffBaseMs must be non-negative");
    if (config_.sweepJobs < 0)
        fatal("Planner: sweepJobs must be non-negative");
    config_.faults.validate();
    if (!config_.modelStorePath.empty())
        store_ = model::ModelStore::loadFile(config_.modelStorePath);
}

std::vector<Bytes>
Planner::coarseSizeGrid()
{
    using cloud::kGB;
    return {100 * kGB,  250 * kGB,  500 * kGB,
            1000 * kGB, 2000 * kGB, 4000 * kGB};
}

int
Planner::resolveWorkers(const Request &req) const
{
    return req.workers > 0 ? req.workers : config_.defaultWorkers;
}

std::string
Planner::profileKey(const Request &req) const
{
    return req.workload + "|w" + std::to_string(resolveWorkers(req));
}

bool
Planner::hasModel(const Request &req) const
{
    return cache_.peek(profileKey(req)) != nullptr;
}

spark::AppMetrics
Planner::runBudgeted(const workloads::Workload &workload,
                     const cluster::ClusterConfig &cluster,
                     const spark::SparkConf &conf,
                     DeadlineBudget &budget)
{
    const faults::FaultSpec *faults =
        config_.faults.any() ? &config_.faults : nullptr;
    for (int attempt = 0;; ++attempt) {
        if (budget.exhausted()) {
            deadlineHit_ = true;
            fatal("planner: deadline budget exhausted before "
                  "slow-path run");
        }
        if (config_.evalFailRate > 0.0 &&
            rng_.uniform() < config_.evalFailRate) {
            if (attempt >= config_.maxRetries) {
                slowPathFailed_ = true;
                fatal("planner: slow path still failing after %d "
                      "retries",
                      config_.maxRetries);
            }
            ++reqRetries_;
            ++totals_.retries;
            double backoff = std::min(
                kBackoffMaxMs,
                config_.backoffBaseMs * static_cast<double>(1 << attempt));
            backoff *= 1.0 + kBackoffJitter * rng_.uniform();
            const double charged = budget.charge(backoff);
            reqBackoffMs_ += charged;
            totals_.backoffMsTotal += charged;
            continue;
        }
        const spark::AppMetrics metrics =
            workload.run(cluster, conf, nullptr, faults);
        const double costMs =
            metrics.seconds() * config_.msPerSimSecond;
        budget.charge(costMs);
        reqSlowPathMs_ += costMs;
        ++totals_.slowPathRuns;
        totals_.slowPathMsTotal += costMs;
        if (metrics.faultsPresent) {
            totals_.partitionTimeouts += metrics.faults.partitionTimeouts;
            totals_.slowPathTaskRetries += metrics.faults.taskRetries;
        }
        return metrics;
    }
}

cloud::CostOptimizer
Planner::buildOptimizer(const Request &req, DeadlineBudget &budget)
{
    const auto workload = workloads::makeWorkload(req.workload);

    // The store key pins what profiling depends on: the workload and
    // the sample-cluster size. The fleet size being optimized for is
    // not part of it — one stored model serves any workers value.
    const std::string storeKey =
        req.workload + "|n" + std::to_string(config_.sampleNodes);
    model::AppModel app;
    const auto stored = store_.find(storeKey);
    if (stored != store_.end()) {
        // Restart fast path: constants survived in the model store,
        // the four-sample profiling methodology is skipped entirely.
        app = stored->second;
        ++totals_.modelStoreHits;
    } else {
        cluster::ClusterConfig sampleCluster;
        sampleCluster.numSlaves = config_.sampleNodes;
        sampleCluster.seed = config_.seed;

        model::Profiler::Options options;
        options.sampleNodes = config_.sampleNodes;
        options.onSample = [this,
                            &budget](const spark::AppMetrics &) -> bool {
            if (!budget.exhausted())
                return true;
            deadlineHit_ = true;
            return false;
        };

        // The profiler drives this runner through the four-sample
        // methodology; each sample run is individually budgeted and
        // retried here.
        model::WorkloadRunner runner =
            [this, &workload,
             &budget](const cluster::ClusterConfig &cluster,
                      const spark::SparkConf &conf) {
                return runBudgeted(*workload, cluster, conf, budget);
            };

        model::Profiler profiler(std::move(runner), sampleCluster,
                                 spark::SparkConf{}, options);
        app = profiler.fit(workload->name());
        if (!config_.modelStorePath.empty()) {
            store_[storeKey] = app;
            model::ModelStore::saveFile(config_.modelStorePath, store_);
        }
    }

    cloud::CostOptimizer::Options search;
    search.workers = resolveWorkers(req);
    search.sizeGrid = coarseSizeGrid();
    search.jobs = config_.sweepJobs;
    return cloud::CostOptimizer(std::move(app), cloud::GcpPricing{},
                                std::move(search));
}

Planner::Outcome
Planner::plan(const std::vector<Request> &reqs,
              std::vector<DeadlineBudget> &budgets, bool allowSlowPath)
{
    if (reqs.empty() || budgets.size() != reqs.size())
        panic("Planner::plan: requests and budgets must align");
    for (const Request &req : reqs)
        if (profileKey(req) != profileKey(reqs[0]))
            panic("Planner::plan: mixed profiles in one call");

    Outcome out;
    out.responses.resize(reqs.size());
    struct Member
    {
        const Request &req;
        DeadlineBudget &budget;
        Response &resp;
        cloud::CloudConfig winner = {}; //!< set once selected
        bool done = false;

        void finish(const char *status, const char *reason)
        {
            resp.status = status;
            resp.reason = reason;
            done = true;
        }
    };
    std::vector<Member> members;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        members.push_back({reqs[i], budgets[i], out.responses[i]});

    // Run one slow-path step for `group` under the richest member's
    // remaining budget, then mirror the clamped charge into every
    // member, so each pays at most what the step alone would cost it.
    // The first member reports its retries and backoff. @return false
    // when it did not complete: deadlineHit_ / slowPathFailed_ say why.
    const auto runShared = [&](const std::vector<Member *> &group,
                               const char *warnPrefix, const auto &step) {
        deadlineHit_ = false;
        slowPathFailed_ = false;
        reqRetries_ = 0;
        reqBackoffMs_ = 0.0;
        reqSlowPathMs_ = 0.0;
        double richest = 0.0;
        for (const Member *m : group)
            richest = std::max(richest, m->budget.remainingMs());
        if (richest <= 0.0) { // every budget was already spent
            deadlineHit_ = true;
            return false;
        }
        DeadlineBudget shared(richest);
        bool completed = true;
        try {
            step(shared);
        } catch (const FatalError &error) {
            completed = false;
            if (!deadlineHit_ && !slowPathFailed_)
                warn("planner: %s%s", warnPrefix, error.what());
        }
        out.occupancyMs += shared.spentMs();
        out.slowPathMs += reqSlowPathMs_;
        out.slowPathFailed = out.slowPathFailed || slowPathFailed_;
        group.front()->resp.retries += reqRetries_;
        group.front()->resp.backoffMs += reqBackoffMs_;
        for (Member *m : group)
            m->budget.charge(shared.spentMs());
        return completed;
    };

    // --- Model: cached, or built once for everyone (the slow path). ---
    const std::string key = profileKey(reqs[0]);
    cloud::CostOptimizer *optimizer = cache_.get(key);
    if (optimizer == nullptr) {
        if (!allowSlowPath) // the server sheds these before plan()
            panic("Planner::plan: no model and the slow path is shut");
        std::vector<Member *> everyone;
        for (Member &m : members)
            everyone.push_back(&m);
        const bool built =
            runShared(everyone, "", [&](DeadlineBudget &b) {
                cache_.put(key, buildOptimizer(reqs[0], b));
            });
        if (!built) {
            const char *reason = deadlineHit_      ? "deadline"
                                 : slowPathFailed_ ? "slow_path_failed"
                                                   : "internal";
            for (Member &m : members) {
                m.resp.degraded = deadlineHit_;
                m.finish("error", reason);
            }
            return out;
        }
        optimizer = cache_.get(key);
    }
    const cloud::SearchStats searchBefore = optimizer->searchStats();

    // --- Grid sweep: one evaluation pass serves every member. ---
    // Walk the cells in canonical order, charging every still-solvent
    // member per cell; a member whose budget runs out keeps the prefix
    // it paid for. The worker is held for the clamped charges of the
    // member that sweeps longest.
    const std::vector<cloud::CloudConfig> grid = optimizer->candidateGrid();
    std::size_t sweepLen = 0;
    for (; sweepLen < grid.size(); ++sweepLen) {
        double cellMs = 0.0;
        for (Member &m : members) {
            if (m.budget.exhausted())
                continue;
            cellMs = std::max(cellMs, m.budget.charge(config_.cellCostMs));
            ++m.resp.cellsDone;
        }
        if (cellMs == 0.0) // no member left solvent
            break;
        out.occupancyMs += cellMs;
    }
    const std::vector<cloud::Evaluation> evals = optimizer->evaluateAll(
        std::vector<cloud::CloudConfig>(grid.begin(),
                                        grid.begin() + sweepLen));

    // --- Per-member selection over each member's own prefix. ---
    for (Member &m : members) {
        m.resp.cellsTotal = static_cast<int>(grid.size());
        m.resp.degraded = m.resp.cellsDone < m.resp.cellsTotal ||
                          m.resp.cellsDone == 0;
        if (m.resp.cellsDone == 0) {
            m.finish("error", "deadline");
            continue;
        }
        const std::vector<cloud::Evaluation> prefix(
            evals.begin(), evals.begin() + m.resp.cellsDone);
        const cloud::Evaluation *best =
            cloud::selectBest(prefix, constraintFor(m.req));
        if (best == nullptr) {
            m.finish("error", "infeasible");
            continue;
        }
        m.winner = best->config;
        m.resp.haveConfig = true;
        m.resp.config = best->config.describe();
        m.resp.costUsd = best->cost;
        m.resp.runtimeSec = best->seconds;
    }

    // --- Validation: re-simulate each distinct winner once, under the
    // service's fault spec. Skipped (model-only) when disabled, the
    // breaker is open, or the member's budget already ran out. ---
    for (Member &m : members) {
        if (m.done)
            continue;
        if (!config_.validate || !allowSlowPath || m.budget.exhausted()) {
            m.resp.modelOnly = true;
            m.resp.degraded = m.resp.degraded || m.budget.exhausted();
            m.finish("ok", "");
            continue;
        }
        // Every member that picked the same configuration shares the
        // run and its budget charge.
        std::vector<Member *> group;
        for (Member &other : members) {
            if (!other.done && !other.budget.exhausted() &&
                other.resp.config == m.resp.config)
                group.push_back(&other);
        }
        double runtime = 0.0;
        const bool validated =
            runShared(group, "validation failed: ", [&](DeadlineBudget &b) {
                const auto workload = workloads::makeWorkload(m.req.workload);
                cluster::ClusterConfig cluster;
                cluster.numSlaves = m.winner.workers;
                cluster.node.cores = m.winner.vcpus;
                cluster.node.hdfsDisk = cloud::makeCloudDiskParams(
                    m.winner.hdfsType, m.winner.hdfsSize);
                cluster.node.localDisk = cloud::makeCloudDiskParams(
                    m.winner.localType, m.winner.localSize);
                cluster.seed = config_.seed;
                spark::SparkConf conf;
                conf.executorCores = m.winner.vcpus;
                runtime = runBudgeted(*workload, cluster, conf, b).seconds();
            });
        for (Member *g : group) {
            if (validated) {
                g->resp.runtimeSec = runtime;
                g->resp.costUsd =
                    cloud::jobCost(m.winner, optimizer->pricing(), runtime);
            } else {
                // The model answer stands; only its validation is
                // missing.
                g->resp.modelOnly = true;
                g->resp.degraded = true;
            }
            g->finish("ok", slowPathFailed_ ? "validation_failed" : "");
        }
    }

    const cloud::SearchStats after = optimizer->searchStats();
    totals_.cellsMemoHit += after.memoHits - searchBefore.memoHits;
    totals_.cellsPruned += after.cellsPruned - searchBefore.cellsPruned;
    return out;
}

} // namespace doppio::service
