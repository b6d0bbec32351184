#include "service/planner.h"

#include <algorithm>

#include "cloud/gcp_disk.h"
#include "common/logging.h"
#include "model/model_store.h"
#include "model/profiler.h"
#include "workloads/registry.h"

namespace doppio::service {

namespace {

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
      cache_(config_.modelCacheCapacity)
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
    if (config_.backoffBaseMs < 0.0 || config_.backoffMaxMs < 0.0 ||
        config_.backoffJitter < 0.0)
        fatal("Planner: backoff parameters must be non-negative");
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
Planner::entryKey(const Request &req) const
{
    return req.workload + "|w" + std::to_string(resolveWorkers(req));
}

bool
Planner::hasModel(const Request &req) const
{
    return cache_.peek(entryKey(req)) != nullptr;
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
                config_.backoffMaxMs,
                config_.backoffBaseMs * static_cast<double>(1 << attempt));
            backoff *= 1.0 + config_.backoffJitter * rng_.uniform();
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

Planner::Entry
Planner::buildEntry(const Request &req, DeadlineBudget &budget)
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
    search.sizeGrid =
        config_.sizeGrid.empty() ? coarseSizeGrid() : config_.sizeGrid;
    search.jobs = config_.sweepJobs;
    cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                   std::move(search));
    return Entry{std::move(app), std::move(optimizer)};
}

PlanResult
Planner::plan(const Request &req, DeadlineBudget &budget,
              bool allowSlowPath)
{
    deadlineHit_ = false;
    slowPathFailed_ = false;
    reqRetries_ = 0;
    reqBackoffMs_ = 0.0;
    reqSlowPathMs_ = 0.0;

    PlanResult result;
    Response &resp = result.response;

    Entry *entry = nullptr;
    cloud::SearchStats searchBefore;

    const auto finish = [&](const char *status, const char *reason) {
        if (entry != nullptr) {
            const cloud::SearchStats after =
                entry->optimizer.searchStats();
            totals_.cellsMemoHit += after.memoHits - searchBefore.memoHits;
            totals_.cellsPruned +=
                after.cellsPruned - searchBefore.cellsPruned;
        }
        resp.status = status;
        resp.reason = reason;
        resp.retries = reqRetries_;
        resp.backoffMs = reqBackoffMs_;
        result.slowPathMs = reqSlowPathMs_;
        result.usedSlowPath = reqSlowPathMs_ > 0.0;
        result.slowPathFailed = slowPathFailed_;
        return result;
    };

    // Model: cached, or profiled now (the slow path).
    const std::string key = entryKey(req);
    entry = cache_.get(key);
    if (entry == nullptr) {
        if (!allowSlowPath)
            // The server sheds this case before calling plan(); keep
            // the invariant anyway.
            return finish("shed", "circuit_open");
        try {
            Entry built = buildEntry(req, budget);
            cache_.put(key, std::move(built));
            entry = cache_.get(key);
        } catch (const FatalError &error) {
            if (deadlineHit_) {
                resp.degraded = true;
                return finish("error", "deadline");
            }
            if (slowPathFailed_)
                return finish("error", "slow_path_failed");
            warn("planner: %s", error.what());
            return finish("error", "internal");
        }
    }
    searchBefore = entry->optimizer.searchStats();

    // Grid search under the remaining budget: a partial prefix is a
    // valid (degraded) answer — coverage shrinks, cells stay exact.
    const std::vector<cloud::CloudConfig> grid =
        entry->optimizer.candidateGrid();
    const std::vector<cloud::Evaluation> evals =
        entry->optimizer.evaluatePrefix(grid, [&]() -> bool {
            if (budget.exhausted())
                return false;
            budget.charge(config_.cellCostMs);
            return true;
        });
    resp.cellsTotal = static_cast<int>(grid.size());
    resp.cellsDone = static_cast<int>(evals.size());
    if (resp.cellsDone < resp.cellsTotal)
        resp.degraded = true;
    if (evals.empty()) {
        resp.degraded = true;
        return finish("error", "deadline");
    }

    // Constraint-mode selection over the evaluated cells.
    const cloud::Evaluation *best =
        cloud::selectBest(evals, constraintFor(req));
    if (best == nullptr)
        return finish("error", "infeasible");

    resp.haveConfig = true;
    resp.config = best->config.describe();
    resp.costUsd = best->cost;
    resp.runtimeSec = best->seconds;

    // Validation: re-simulate the winner under the service's fault
    // spec. Skipped (model-only) when disabled, the breaker is open,
    // or the budget already ran out.
    if (!config_.validate || !allowSlowPath || budget.exhausted()) {
        resp.modelOnly = true;
        if (budget.exhausted())
            resp.degraded = true;
        return finish("ok", "");
    }
    try {
        const auto workload = workloads::makeWorkload(req.workload);
        cluster::ClusterConfig cluster;
        cluster.numSlaves = best->config.workers;
        cluster.node.cores = best->config.vcpus;
        cluster.node.hdfsDisk = cloud::makeCloudDiskParams(
            best->config.hdfsType, best->config.hdfsSize);
        cluster.node.localDisk = cloud::makeCloudDiskParams(
            best->config.localType, best->config.localSize);
        cluster.seed = config_.seed;
        spark::SparkConf conf;
        conf.executorCores = best->config.vcpus;
        const spark::AppMetrics metrics =
            runBudgeted(*workload, cluster, conf, budget);
        resp.runtimeSec = metrics.seconds();
        resp.costUsd = cloud::jobCost(
            best->config, entry->optimizer.pricing(), resp.runtimeSec);
    } catch (const FatalError &error) {
        // The model answer stands; only its validation is missing.
        resp.modelOnly = true;
        resp.degraded = true;
        if (!deadlineHit_ && !slowPathFailed_)
            warn("planner: validation failed: %s", error.what());
        return finish("ok", slowPathFailed_ ? "validation_failed" : "");
    }
    return finish("ok", "");
}

Planner::BatchOutcome
Planner::planBatch(const std::vector<Request> &reqs,
                   std::vector<DeadlineBudget> &budgets,
                   bool allowSlowPath)
{
    const std::size_t n = reqs.size();
    if (n == 0 || budgets.size() != n)
        panic("planBatch: requests and budgets must align");
    for (std::size_t i = 1; i < n; ++i) {
        if (profileKey(reqs[i]) != profileKey(reqs[0]))
            panic("planBatch: mixed profiles in one batch");
    }

    BatchOutcome out;
    out.results.resize(n);
    std::vector<char> done(n, 0);
    std::vector<int> memberRetries(n, 0);
    std::vector<double> memberBackoff(n, 0.0);

    const auto finishMember = [&](std::size_t i, const char *status,
                                  const char *reason) {
        out.results[i].response.status = status;
        out.results[i].response.reason = reason;
        done[i] = 1;
    };
    const auto finalize = [&]() -> BatchOutcome & {
        for (std::size_t i = 0; i < n; ++i) {
            out.results[i].response.retries = memberRetries[i];
            out.results[i].response.backoffMs = memberBackoff[i];
        }
        out.usedSlowPath = out.slowPathMs > 0.0;
        return out;
    };

    // --- Model phase: at most one build for the whole batch. ---
    deadlineHit_ = false;
    slowPathFailed_ = false;
    reqRetries_ = 0;
    reqBackoffMs_ = 0.0;
    reqSlowPathMs_ = 0.0;

    const std::string key = entryKey(reqs[0]);
    Entry *entry = cache_.get(key);
    if (entry == nullptr) {
        if (!allowSlowPath) {
            for (std::size_t i = 0; i < n; ++i)
                finishMember(i, "shed", "circuit_open");
            return finalize();
        }
        double maxRemaining = 0.0;
        for (const DeadlineBudget &budget : budgets)
            maxRemaining = std::max(maxRemaining, budget.remainingMs());
        if (maxRemaining <= 0.0) {
            for (std::size_t i = 0; i < n; ++i) {
                out.results[i].response.degraded = true;
                finishMember(i, "error", "deadline");
            }
            return finalize();
        }
        // Build once under the richest member's remaining budget,
        // then mirror the (clamped) charge into every member — each
        // waiter pays at most what a solo build would have cost it.
        DeadlineBudget shared(maxRemaining);
        bool built = true;
        const char *failReason = "internal";
        try {
            Entry fresh = buildEntry(reqs[0], shared);
            cache_.put(key, std::move(fresh));
            entry = cache_.get(key);
        } catch (const FatalError &error) {
            built = false;
            if (deadlineHit_)
                failReason = "deadline";
            else if (slowPathFailed_)
                failReason = "slow_path_failed";
            else
                warn("planner: %s", error.what());
        }
        out.occupancyMs += shared.spentMs();
        out.slowPathMs += reqSlowPathMs_;
        out.slowPathFailed = out.slowPathFailed || slowPathFailed_;
        memberRetries[0] += reqRetries_;
        memberBackoff[0] += reqBackoffMs_;
        for (DeadlineBudget &budget : budgets)
            budget.charge(shared.spentMs());
        if (!built) {
            for (std::size_t i = 0; i < n; ++i) {
                if (deadlineHit_)
                    out.results[i].response.degraded = true;
                finishMember(i, "error", failReason);
            }
            return finalize();
        }
    }
    const cloud::SearchStats searchBefore =
        entry->optimizer.searchStats();

    // --- Union sweep: one evaluation pass serves every waiter. ---
    // Walk cells in canonical order charging every still-solvent
    // member exactly as its solo keepGoing loop would; the union
    // prefix is evaluated once (fanned across sweepJobs threads).
    const std::vector<cloud::CloudConfig> grid =
        entry->optimizer.candidateGrid();
    std::vector<int> cellsDone(n, 0);
    std::vector<char> active(n);
    for (std::size_t i = 0; i < n; ++i)
        active[i] = done[i] ? 0 : 1;
    std::size_t sweepLen = 0;
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (!active[i])
                continue;
            if (budgets[i].exhausted()) {
                active[i] = 0;
                continue;
            }
            budgets[i].charge(config_.cellCostMs);
            ++cellsDone[i];
            any = true;
        }
        if (!any)
            break;
        sweepLen = cell + 1;
    }
    const std::vector<cloud::Evaluation> evals = entry->optimizer.evaluateAll(
        std::vector<cloud::CloudConfig>(grid.begin(),
                                        grid.begin() + sweepLen));
    out.occupancyMs += static_cast<double>(sweepLen) * config_.cellCostMs;

    // --- Per-member selection over each member's own prefix. ---
    std::vector<cloud::Evaluation> bestOf(n);
    std::vector<char> haveBest(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (done[i])
            continue;
        Response &resp = out.results[i].response;
        resp.cellsTotal = static_cast<int>(grid.size());
        resp.cellsDone = cellsDone[i];
        if (resp.cellsDone < resp.cellsTotal)
            resp.degraded = true;
        if (cellsDone[i] == 0) {
            resp.degraded = true;
            finishMember(i, "error", "deadline");
            continue;
        }
        const std::vector<cloud::Evaluation> prefix(
            evals.begin(),
            evals.begin() + static_cast<std::ptrdiff_t>(cellsDone[i]));
        const cloud::Evaluation *best =
            cloud::selectBest(prefix, constraintFor(reqs[i]));
        if (best == nullptr) {
            finishMember(i, "error", "infeasible");
            continue;
        }
        bestOf[i] = *best;
        haveBest[i] = 1;
        resp.haveConfig = true;
        resp.config = best->config.describe();
        resp.costUsd = best->cost;
        resp.runtimeSec = best->seconds;
    }

    // --- Validation, deduped by winning configuration. ---
    std::vector<char> wantsValidation(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        wantsValidation[i] = !done[i] && haveBest[i] && config_.validate &&
                             allowSlowPath && !budgets[i].exhausted();
    for (std::size_t i = 0; i < n; ++i) {
        if (done[i])
            continue;
        if (!wantsValidation[i]) {
            Response &resp = out.results[i].response;
            resp.modelOnly = true;
            if (budgets[i].exhausted())
                resp.degraded = true;
            finishMember(i, "ok", "");
            continue;
        }
        // Validate this winner once; every member that picked the
        // same configuration shares the run and its budget charge.
        std::vector<std::size_t> group;
        for (std::size_t j = i; j < n; ++j) {
            if (!done[j] && wantsValidation[j] &&
                bestOf[j].config.describe() == bestOf[i].config.describe())
                group.push_back(j);
        }
        double maxRemaining = 0.0;
        for (const std::size_t j : group)
            maxRemaining =
                std::max(maxRemaining, budgets[j].remainingMs());
        deadlineHit_ = false;
        slowPathFailed_ = false;
        reqRetries_ = 0;
        reqBackoffMs_ = 0.0;
        reqSlowPathMs_ = 0.0;
        DeadlineBudget shared(maxRemaining);
        try {
            const auto workload = workloads::makeWorkload(reqs[i].workload);
            cluster::ClusterConfig cluster;
            cluster.numSlaves = bestOf[i].config.workers;
            cluster.node.cores = bestOf[i].config.vcpus;
            cluster.node.hdfsDisk = cloud::makeCloudDiskParams(
                bestOf[i].config.hdfsType, bestOf[i].config.hdfsSize);
            cluster.node.localDisk = cloud::makeCloudDiskParams(
                bestOf[i].config.localType, bestOf[i].config.localSize);
            cluster.seed = config_.seed;
            spark::SparkConf conf;
            conf.executorCores = bestOf[i].config.vcpus;
            const spark::AppMetrics metrics =
                runBudgeted(*workload, cluster, conf, shared);
            const double runtime = metrics.seconds();
            const double cost = cloud::jobCost(
                bestOf[i].config, entry->optimizer.pricing(), runtime);
            for (const std::size_t j : group) {
                out.results[j].response.runtimeSec = runtime;
                out.results[j].response.costUsd = cost;
                finishMember(j, "ok", "");
            }
        } catch (const FatalError &error) {
            if (!deadlineHit_ && !slowPathFailed_)
                warn("planner: validation failed: %s", error.what());
            for (const std::size_t j : group) {
                out.results[j].response.modelOnly = true;
                out.results[j].response.degraded = true;
                finishMember(j, "ok",
                             slowPathFailed_ ? "validation_failed" : "");
            }
        }
        out.occupancyMs += shared.spentMs();
        out.slowPathMs += reqSlowPathMs_;
        out.slowPathFailed = out.slowPathFailed || slowPathFailed_;
        memberRetries[group.front()] += reqRetries_;
        memberBackoff[group.front()] += reqBackoffMs_;
        for (const std::size_t j : group)
            budgets[j].charge(shared.spentMs());
    }

    const cloud::SearchStats after = entry->optimizer.searchStats();
    totals_.cellsMemoHit += after.memoHits - searchBefore.memoHits;
    totals_.cellsPruned += after.cellsPruned - searchBefore.cellsPruned;
    return finalize();
}

} // namespace doppio::service
