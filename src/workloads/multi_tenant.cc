#include "workloads/multi_tenant.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "faults/fault_injector.h"
#include "sched/streaming.h"
#include "sim/simulator.h"
#include "spark/metrics_json.h"
#include "telemetry/views.h"
#include "workloads/registry.h"
#include "workloads/streaming.h"
#include "workloads/workload.h"

namespace doppio::workloads {

namespace {

std::string
tenantPrefix(int index)
{
    return "t" + std::to_string(index) + ".";
}

} // namespace

MultiTenantResult
runMultiTenant(const sched::MultiJobSpec &spec,
               const cluster::ClusterConfig &clusterConfig,
               const spark::SparkConf &sparkConf,
               const faults::FaultSpec *faultSpec,
               trace::TraceCollector *collector,
               telemetry::Registry *registry)
{
    sim::Simulator simulator;
    cluster::Cluster cluster(simulator, clusterConfig);
    if (collector != nullptr)
        cluster.setTraceCollector(collector);
    if (registry != nullptr)
        telemetry::attachCluster(*registry, cluster);
    dfs::Hdfs hdfs(cluster, dfs::HdfsConfig{});

    // Register every tenant's inputs up front (HDFS placement is part
    // of provisioning, not of the simulated timeline).
    std::vector<TenantProgram> programs(spec.tenants.size());
    std::vector<StreamingTemplate> templates(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const sched::TenantSpec &tenant = spec.tenants[i];
        const std::string prefix = tenantPrefix(static_cast<int>(i));
        if (tenant.kind == sched::TenantSpec::Kind::Batch) {
            programs[i] =
                makeWorkload(tenant.workload)->program(prefix);
            programs[i].registerInputs(hdfs);
        } else {
            const Bytes batchBytes = tenant.batchBytes != 0
                                         ? tenant.batchBytes
                                         : 64 * kMiB;
            templates[i] = makeStreamingTemplate(
                tenant.workload, prefix, tenant.stream.batches,
                batchBytes);
            templates[i].registerInputs(hdfs);
        }
    }

    sched::JobScheduler scheduler(cluster, hdfs, sparkConf);
    if (collector != nullptr)
        scheduler.setTraceCollector(collector);
    for (const sched::PoolConfig &pool : spec.pools)
        scheduler.definePool(pool);

    std::unique_ptr<faults::FaultInjector> injector;
    if (faultSpec != nullptr && faultSpec->any()) {
        injector = std::make_unique<faults::FaultInjector>(
            *faultSpec, clusterConfig.seed);
        scheduler.setFaultInjector(injector.get());
        injector->arm(cluster);
    }

    std::vector<std::unique_ptr<sched::StreamingDriver>> drivers(
        spec.tenants.size());
    std::vector<sched::JobContext *> contexts;
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const sched::TenantSpec &tenant = spec.tenants[i];
        const std::string name =
            tenant.workload + "#" + std::to_string(i);
        sched::JobContext &context =
            scheduler.addTenant(name, tenant.pool);
        contexts.push_back(&context);
        if (tenant.kind == sched::TenantSpec::Kind::Batch) {
            // Submission (possibly deferred) enqueues every job of
            // the program; each job still compiles only when it
            // starts, so lineage decisions see prior jobs' blocks.
            auto submit = [&context, program = &programs[i]]() {
                const std::vector<TenantJob> jobs = program->buildJobs(
                    [&context](const std::string &fileName) {
                        return context.hadoopFile(fileName);
                    });
                for (const TenantJob &job : jobs) {
                    sched::JobContext::JobRequest request;
                    request.name = job.name;
                    request.target = job.target;
                    request.action = job.action;
                    request.unpersistAfter = job.unpersistAfter;
                    context.submitJob(std::move(request));
                }
            };
            if (tenant.startSec > 0.0)
                simulator.scheduleAt(secondsToTicks(tenant.startSec),
                                     submit);
            else
                submit();
        } else {
            drivers[i] = std::make_unique<sched::StreamingDriver>(
                tenant.stream);
            drivers[i]->enableRecovery(templates[i].checkpointBuilder,
                                       templates[i].recoveryBuilder);
            auto start = [&scheduler, &context, driver = drivers[i].get(),
                          builder = templates[i].builder]() {
                driver->start(scheduler, context, builder);
            };
            if (tenant.startSec > 0.0)
                simulator.scheduleAt(secondsToTicks(tenant.startSec),
                                     start);
            else
                start();
        }
    }

    scheduler.run();

    MultiTenantResult result;
    result.seconds = ticksToSeconds(simulator.now());
    result.tenancy = scheduler.tenancy();
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        spark::AppMetrics metrics = contexts[i]->appMetrics();
        metrics.name = contexts[i]->name();
        if (drivers[i] != nullptr) {
            metrics.streamingPresent = true;
            metrics.streaming = drivers[i]->stats();
            const spark::StreamingMetrics &stream = metrics.streaming;
            if (stream.checkpointIntervalSec >= 0.0 &&
                i < result.tenancy.tenants.size()) {
                sched::TenantSummary &summary =
                    result.tenancy.tenants[i];
                summary.streamRecovery = true;
                summary.checkpointIntervalSec =
                    stream.checkpointIntervalSec;
                summary.checkpoints = stream.checkpoints;
                summary.recoveries = stream.recoveries;
                summary.maxRecoverySec = stream.maxRecoverySec;
            }
        }
        result.tenants.push_back(std::move(metrics));
    }
    if (cluster.pageCacheEnabled()) {
        result.pageCachePresent = true;
        result.pageCache = cluster.pageCacheTotals();
    }
    if (sparkConf.unifiedMemory) {
        result.memoryPresent = true;
        result.memory = scheduler.blockManager().memoryMetrics();
    }
    if (injector != nullptr) {
        result.faultsPresent = true;
        result.faults = spark::foldRunFaults(result.tenants, cluster, hdfs);
    }
    if (registry != nullptr) {
        // Per-tenant application metrics stay out: publishAppMetrics
        // uses app-scoped (unlabeled) series, and the tenancy summary
        // already carries the per-tenant shares.
        telemetry::publishTenancy(*registry, result.tenancy);
        telemetry::publishCluster(*registry, cluster);
        telemetry::publishHdfs(*registry, hdfs);
    }
    return result;
}

void
writeMultiTenantJson(std::ostream &os, const MultiTenantResult &result)
{
    char buf[64];
    auto num = [&buf](double v) -> const char * {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return buf;
    };
    os << "{\"app\":\"multi-tenant\",\"seconds\":"
       << num(result.seconds) << ",\"tenants\":[";
    bool first = true;
    for (const spark::AppMetrics &tenant : result.tenants) {
        if (!first)
            os << ',';
        first = false;
        spark::writeMetricsJson(os, tenant);
    }
    os << "],\"tenancy\":{\"tenants\":[";
    first = true;
    for (const sched::TenantSummary &tenant : result.tenancy.tenants) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << tenant.name << "\",\"pool\":\""
           << tenant.pool << "\",\"jobs\":" << tenant.jobs
           << ",\"submit_seconds\":" << num(tenant.submitSec);
        os << ",\"done_seconds\":" << num(tenant.doneSec);
        os << ",\"core_seconds\":" << num(tenant.coreSeconds);
        if (tenant.streamRecovery) {
            os << ",\"checkpoint_interval_seconds\":"
               << num(tenant.checkpointIntervalSec)
               << ",\"checkpoints\":" << tenant.checkpoints
               << ",\"recoveries\":" << tenant.recoveries
               << ",\"max_recovery_seconds\":"
               << num(tenant.maxRecoverySec)
               << ",\"recovery_slo_met\":"
               << (tenant.recoverySloMet() ? "true" : "false");
        }
        os << '}';
    }
    os << "],\"pools\":[";
    first = true;
    for (const sched::PoolSummary &pool : result.tenancy.pools) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << pool.name << "\",\"mode\":\""
           << (pool.fair ? "fair" : "fifo")
           << "\",\"weight\":" << num(pool.weight)
           << ",\"min_share\":" << pool.minShare;
        os << ",\"core_seconds\":" << num(pool.coreSeconds) << '}';
    }
    os << "],\"total_core_seconds\":"
       << num(result.tenancy.totalCoreSeconds()) << '}';
    if (result.pageCachePresent) {
        os << ',';
        spark::writePageCacheJson(os, result.pageCache);
    }
    if (result.memoryPresent) {
        os << ',';
        spark::writeMemoryJson(os, result.memory);
    }
    if (result.faultsPresent) {
        os << ',';
        spark::writeAppFaultsJson(os, result.faults);
    }
    os << '}';
}

} // namespace doppio::workloads
